package main

import (
	"encoding/binary"
	"math/rand"
	"time"
)

// Application payload: [magic u32][sender u32][seq u64][due i64][filler].
// The magic's first byte cannot open a wire image (those start with a
// 32-bit header length, far below 0xB5<<24), which is how a probe
// below FRAG knows the body it sees is not an application payload.
const (
	payloadMagic = 0xB5484201
	payloadMin   = 24
)

// filler is seeded random padding shared by every cast of a run; casts
// copy a window of it, so payloads are incompressible and vary without
// a generator call per byte.
type filler []byte

func newFiller(seed int64, body int) filler {
	f := make(filler, 2*body+64)
	rand.New(rand.NewSource(seed ^ 0x66696c6c)).Read(f)
	return f
}

// newPayload builds one cast body of the given size.
func (f filler) newPayload(body, sender int, seq uint64, due time.Duration) []byte {
	p := make([]byte, body)
	binary.BigEndian.PutUint32(p, payloadMagic)
	binary.BigEndian.PutUint32(p[4:], uint32(sender))
	binary.BigEndian.PutUint64(p[8:], seq)
	binary.BigEndian.PutUint64(p[16:], uint64(due))
	copy(p[payloadMin:], f[int(seq)%(body+64):])
	return p
}

func parsePayload(p []byte) (sender int, seq uint64, due time.Duration, ok bool) {
	if len(p) < payloadMin || binary.BigEndian.Uint32(p) != payloadMagic {
		return 0, 0, 0, false
	}
	return int(binary.BigEndian.Uint32(p[4:])), binary.BigEndian.Uint64(p[8:]),
		time.Duration(binary.BigEndian.Uint64(p[16:])), true
}

// payloadTag is the probe's tag extractor for these payloads.
func payloadTag(body []byte) uint64 {
	sender, seq, _, ok := parsePayload(body)
	if !ok {
		return 0
	}
	return castTag(sender, seq)
}
