package udpnet

import (
	"bytes"
	"testing"

	"horus/internal/core"
)

// FuzzDecode hardens the datagram framing against arbitrary input.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encode("grp", []byte("payload")))
	f.Add([]byte{0xFF, 0xFF})                   // truncated: header promises 65535 group bytes
	f.Add([]byte{0x00})                         // shorter than the length prefix itself
	f.Add([]byte{0x00, 0x03, 'a', 'b'})         // truncated: promises 3, carries 2
	f.Add(append([]byte{0x01, 0x01, 'g'}, 0x7)) // minimal valid frame + 1 payload byte
	f.Add(func() []byte {                       // oversized header: length prefix beyond maxGroupAddr
		pkt := make([]byte, 2+maxGroupAddr+1)
		pkt[0] = byte((maxGroupAddr + 1) >> 8)
		pkt[1] = byte((maxGroupAddr + 1) & 0xFF)
		return pkt
	}())
	f.Fuzz(func(t *testing.T, pkt []byte) {
		group, payload, ok := decode(pkt, "")
		if !ok {
			return
		}
		if len(group) > maxGroupAddr {
			t.Fatalf("decode accepted %d-byte group address (limit %d)", len(group), maxGroupAddr)
		}
		// Re-encoding a successful parse reproduces a packet that
		// decodes identically.
		again := encode(group, payload)
		g2, p2, ok2 := decode(again, group)
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
	if _, _, ok := decode(pkt, ""); ok {
		t.Fatal("decode accepted an oversized group-address header")
	}
	// At exactly the cap it still parses.
	okPkt := make([]byte, 2+maxGroupAddr)
	okPkt[0] = byte(maxGroupAddr >> 8)
	okPkt[1] = byte(maxGroupAddr & 0xFF)
	if _, _, ok := decode(okPkt, ""); !ok {
		t.Fatal("decode rejected a group address at the limit")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		group   string
		payload string
	}{
		{"g", "hello"},
		{"", ""},
		{"a-long-group-address-with-dots.and.more", "x"},
	} {
		g, p, ok := decode(encode(core.GroupAddr("grp-"+tc.group), []byte(tc.payload)), "grp-g")
		if !ok || string(g) != "grp-"+tc.group || string(p) != tc.payload {
			t.Fatalf("round trip failed for %+v: %q %q %v", tc, g, p, ok)
		}
	}
}
