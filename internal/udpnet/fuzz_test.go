package udpnet

import (
	"bytes"
	"testing"

	"horus/internal/core"
	"horus/internal/message"
)

// FuzzDecode hardens the datagram framing against arbitrary input,
// taking each datagram the way the reader does: through accept, with
// every payload carved from one slab. A rejected datagram is counted
// and takes nothing from the slab; an accepted one takes exactly its
// payload, or nothing when it is large enough for a buffer of its own.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, "grp", []byte("payload")))
	f.Add(appendFrame(nil, "grp", make([]byte, message.SlabSize/4+1))) // too large to carve
	f.Add(make([]byte, maxDatagram+1))                                 // what a truncating read returns
	f.Add([]byte{0xFF, 0xFF})                                          // truncated: header promises 65535 group bytes
	f.Add([]byte{0x00})                                                // shorter than the length prefix itself
	f.Add([]byte{0x00, 0x03, 'a', 'b'})                                // truncated: promises 3, carries 2
	f.Add(append([]byte{0x01, 0x01, 'g'}, 0x7))                        // minimal valid frame + 1 payload byte
	f.Add(func() []byte {                                              // oversized header: length prefix beyond maxGroupAddr
		pkt := make([]byte, 2+maxGroupAddr+1)
		pkt[0] = byte((maxGroupAddr + 1) >> 8)
		pkt[1] = byte((maxGroupAddr + 1) & 0xFF)
		return pkt
	}())
	var tr Transport
	var payloads message.Slab
	f.Fuzz(func(t *testing.T, pkt []byte) {
		var group core.GroupAddr
		before, counted := payloads.Left(), tr.Stats()
		payload, ok := tr.accept(pkt, &group, &payloads)
		if !ok {
			want := counted
			if len(pkt) > maxDatagram {
				want.Truncated++
			} else {
				want.Malformed++
			}
			if got := tr.Stats(); got != want {
				t.Fatalf("a rejected %d-byte datagram moved the counters from %+v to %+v", len(pkt), counted, got)
			}
			if payloads.Left() != before {
				t.Fatalf("a rejected datagram took %d bytes of the slab", before-payloads.Left())
			}
			return
		}
		if got := tr.Stats(); got != counted {
			t.Fatalf("an accepted datagram moved the counters from %+v to %+v", counted, got)
		}
		if len(group) > maxGroupAddr {
			t.Fatalf("accepted a %d-byte group address (limit %d)", len(group), maxGroupAddr)
		}
		if cap(payload) != len(payload) {
			t.Fatalf("payload of %d bytes has capacity %d", len(payload), cap(payload))
		}
		switch {
		case len(payload) > message.SlabSize/4:
			if payloads.Left() != before {
				t.Fatalf("a %d-byte payload took %d bytes of the slab", len(payload), before-payloads.Left())
			}
		case len(payload) <= before:
			if payloads.Left() != before-len(payload) {
				t.Fatalf("a %d-byte payload left %d of %d slab bytes", len(payload), payloads.Left(), before)
			}
		default:
			if payloads.Left() != message.SlabSize-len(payload) {
				t.Fatalf("a %d-byte payload left %d bytes of a new slab", len(payload), payloads.Left())
			}
		}
		// Re-encoding a successful parse reproduces a packet that
		// decodes identically.
		again := appendFrame(nil, group, payload)
		g2, p2, ok2 := decode(again, group, &payloads)
		if !ok2 || g2 != group || !bytes.Equal(p2, payload) {
			t.Fatalf("re-encode mismatch: %q/%q vs %q/%q", group, payload, g2, p2)
		}
	})
}

func TestDecodeRejectsOversizedHeader(t *testing.T) {
	// A datagram big enough to satisfy its own length prefix, but with
	// a group-address field beyond the sanity cap, must be rejected.
	pkt := make([]byte, 2+maxGroupAddr+1)
	pkt[0] = byte((maxGroupAddr + 1) >> 8)
	pkt[1] = byte((maxGroupAddr + 1) & 0xFF)
	if _, _, ok := decode(pkt, "", new(message.Slab)); ok {
		t.Fatal("decode accepted an oversized group-address header")
	}
	// At exactly the cap it still parses.
	okPkt := make([]byte, 2+maxGroupAddr)
	okPkt[0] = byte(maxGroupAddr >> 8)
	okPkt[1] = byte(maxGroupAddr & 0xFF)
	if _, _, ok := decode(okPkt, "", new(message.Slab)); !ok {
		t.Fatal("decode rejected a group address at the limit")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var payloads message.Slab
	for _, tc := range []struct {
		group   string
		payload string
	}{
		{"g", "hello"},
		{"", ""},
		{"a-long-group-address-with-dots.and.more", "x"},
	} {
		g, p, ok := decode(appendFrame(nil, core.GroupAddr("grp-"+tc.group), []byte(tc.payload)), "grp-g", &payloads)
		if !ok || string(g) != "grp-"+tc.group || string(p) != tc.payload {
			t.Fatalf("round trip failed for %+v: %q %q %v", tc, g, p, ok)
		}
	}
}
