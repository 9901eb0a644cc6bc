package udpnet

import (
	"bytes"
	"math/rand"
	"testing"

	"horus/internal/core"
	"horus/internal/message"
)

// The reader carves consecutive payloads out of one slab and hands each
// to the endpoint for good. That is sound only if no two of them share
// a byte and no append to one can run on into the next. The test takes
// datagrams the way readLoop does and, once the next payload has been
// carved, does to each delivered payload what a careless handler might:
// appends to it and overwrites every byte. At the end every payload
// must hold exactly what was written to it — its own damage and nobody
// else's.
func TestDeliveredPayloadsShareNothing(t *testing.T) {
	var tr Transport
	var group core.GroupAddr
	var payloads message.Slab
	rng := rand.New(rand.NewSource(16))
	abuse := func(p []byte) {
		_ = append(p, bytes.Repeat([]byte{0xEE}, 64)...)
		for i := range p {
			p[i] = ^p[i]
		}
	}

	var sent, got [][]byte
	slabs, own := 0, 0
	for i := 0; i < 2000; i++ {
		size := rng.Intn(300)
		if i%50 == 0 {
			size = message.SlabSize/4 + 1 + rng.Intn(message.SlabSize) // gets a buffer of its own
		}
		body := make([]byte, size)
		rng.Read(body)
		before := payloads.Left()
		payload, ok := tr.accept(appendFrame(nil, "grp", body), &group, &payloads)
		if !ok || !bytes.Equal(payload, body) {
			t.Fatalf("datagram %d (%d bytes) not accepted as sent", i, size)
		}
		switch {
		case size > message.SlabSize/4:
			own++
			if payloads.Left() != before {
				t.Fatalf("datagram %d: a %d-byte payload took %d bytes of the slab", i, size, before-payloads.Left())
			}
		case size > before:
			slabs++
		}
		if cap(payload) != len(payload) {
			t.Fatalf("datagram %d: payload of %d bytes has capacity %d", i, len(payload), cap(payload))
		}
		if i > 0 {
			abuse(got[i-1])
		}
		sent, got = append(sent, body), append(got, payload)
	}
	abuse(got[len(got)-1])

	for i, p := range got {
		for j := range p {
			if p[j] != ^sent[i][j] {
				t.Fatalf("payload %d of %d bytes: byte %d was written by something other than its owner", i, len(p), j)
			}
		}
	}
	if slabs < 10 || own < 10 {
		t.Fatalf("the run used %d slabs and %d separate buffers: it exercised too little", slabs, own)
	}
	if tr.Stats() != (Stats{}) {
		t.Fatalf("counters moved: %+v", tr.Stats())
	}
}
