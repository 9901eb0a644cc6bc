// Package chksum implements the checksumming layer of the paper's §2
// example: "a simple protocol that adds a (large enough) checksum to
// each message could be used to reduce the garbling problem to a
// statistically insignificant rate." The layer has functionality on
// both sides: the sender pushes a CRC-32 over the message's wire form,
// and the receiver drops the message if the checksum does not match.
//
// Properties: requires P1; provides protection that upgrades the
// network's garbling behaviour to clean loss (which NAK then repairs).
package chksum

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"horus/internal/core"
)

// Chksum is one checksum layer instance.
type Chksum struct {
	core.Base
	stats Stats
	pfx   [4]byte // compiled path's synthesized length prefix; the CRC
	// routines defeat escape analysis, so a stack-local would allocate
	// per cast
}

// Stats counts checksum activity.
type Stats struct {
	Protected int // messages checksummed on the way down
	Verified  int // messages that passed verification
	Dropped   int // messages dropped for checksum mismatch
}

// New returns a checksum layer.
func New() core.Layer { return &Chksum{} }

// Name implements core.Layer.
func (k *Chksum) Name() string { return "CHKSUM" }

// Stats returns a snapshot of the layer's counters.
func (k *Chksum) Stats() Stats { return k.stats }

// Down implements core.Layer.
func (k *Chksum) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend, core.DLocate:
		sum := crc32.ChecksumIEEE(ev.Msg.Marshal())
		ev.Msg.PushUint32(sum)
		k.stats.Protected++
		k.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("CHKSUM: protected=%d verified=%d dropped=%d",
			k.stats.Protected, k.stats.Verified, k.stats.Dropped))
		k.Ctx.Down(ev)
	default:
		k.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (k *Chksum) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend, core.ULocate:
		want := ev.Msg.PopUint32()
		got := crc32.ChecksumIEEE(ev.Msg.Marshal())
		if got != want {
			k.stats.Dropped++
			return
		}
		k.stats.Verified++
		k.Ctx.Up(ev)
	default:
		k.Ctx.Up(ev)
	}
}

// CompileCast implements core.CastCompiler: a fixed 4-byte CRC slot,
// computed incrementally over the frame instead of marshalling — the
// wire form the reference path checksums is [u32 hdrlen][hdr][body],
// which the flat image provides contiguously except for the length
// prefix, synthesized on the stack.
func (k *Chksum) CompileCast() core.CompiledCast {
	return core.CompiledCast{
		Width: 4,
		Fill: func(f *core.CastFrame) {
			binary.BigEndian.PutUint32(k.pfx[:], uint32(len(f.Hdr)))
			sum := crc32.ChecksumIEEE(k.pfx[:])
			sum = crc32.Update(sum, crc32.IEEETable, f.Hdr)
			sum = crc32.Update(sum, crc32.IEEETable, f.Body)
			binary.BigEndian.PutUint32(f.Own, sum)
			k.stats.Protected++
		},
	}
}

// Transparent implements core.Skipper: the checksum layer acts only on
// message-bearing events; everything else passes verbatim and the
// stack may skip this layer entirely (§10 item 1).
func (k *Chksum) Transparent(t core.EventType, down bool) bool {
	if down {
		switch t {
		case core.DCast, core.DSend, core.DLocate, core.DDump:
			return false
		}
		return true
	}
	switch t {
	case core.UCast, core.USend, core.ULocate:
		return false
	}
	return true
}
