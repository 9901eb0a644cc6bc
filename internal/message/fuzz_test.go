package message

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// FuzzUnmarshal hardens the wire parser: arbitrary bytes must never
// panic, anything that parses must re-marshal to an equivalent
// message, and — the parse being a view of wire, and a clone a view of
// its original — no sequence of pops, pushes, body replacements and
// clones may write to wire or to an application's body, or make any
// message differ from a copying implementation (view_test.go; 18 in a
// script is a CopyFrom).
func FuzzUnmarshal(f *testing.F) {
	m := New([]byte("body"))
	m.PushUint32(7)
	f.Add(m.Marshal(), []byte{0, 2, 4, 9, 9, 1, 1})
	f.Add(m.Marshal(), []byte{8, 0, 4, 4, 1, 2, 9, 1, 8, 9, 2, 3, 1, 2, 9, 0, 7, 'b', 3, 8})
	f.Add(m.Marshal(), []byte{18, 4, 1, 2, 9, 1, 8, 1, 3, 9, 2, 38, 0, 2, 7, 'c', 4})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0, 0}, []byte{3, 1, 2})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}, []byte{1})
	f.Fuzz(func(t *testing.T, wire, script []byte) {
		got, err := Unmarshal(wire)
		if err != nil {
			return
		}
		if len(script) > 256 {
			script = script[:256]
		}
		checkView(t, append([]byte(nil), wire...), script)
		checkSent(t, wire, script)
		// Round trip: marshal of the parse equals a canonical reparse.
		again, err := Unmarshal(got.Marshal())
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if !Equal(got, again) {
			t.Fatal("marshal/unmarshal not idempotent")
		}
	})
}

// FuzzPushPop drives the header stack with arbitrary operations.
func FuzzPushPop(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{4, 5})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		m := New(b)
		m.PushBytes(a)
		m.PushAligned(a)
		if got := m.PopAligned(len(a)); !bytes.Equal(got, a) {
			t.Fatal("aligned round trip")
		}
		if got := m.PopBytes(); !bytes.Equal(got, a) {
			t.Fatal("bytes round trip")
		}
		if m.HeaderLen() != 0 {
			t.Fatal("residual header")
		}
	})
}

// FuzzCompactLayout differentially tests the §10 compacted header
// against the per-layer push/pop path it replaces: for arbitrary field
// widths and values, fields set through the bit-packed layout must read
// back exactly what a word-aligned push/pop of the same values carries,
// fields must not overlap, the attach/detach message round trip must be
// lossless, and the compact form must never be larger than the aligned
// form whose padding overhead the paper calls out.
func FuzzCompactLayout(f *testing.F) {
	f.Add([]byte{8, 1, 64, 13}, int64(1))
	f.Add([]byte{32, 32}, int64(42))
	f.Add([]byte{1}, int64(-7))
	f.Fuzz(func(t *testing.T, widths []byte, vseed int64) {
		if len(widths) == 0 {
			return
		}
		if len(widths) > 12 {
			widths = widths[:12]
		}
		fields := make([]Field, len(widths))
		for i, w := range widths {
			fields[i] = Field{Layer: "FUZZ", Name: fmt.Sprintf("f%d", i), Bits: int(w%64) + 1}
		}
		layout, err := NewLayout(fields)
		if err != nil {
			t.Fatalf("valid widths rejected: %v", err)
		}

		rng := rand.New(rand.NewSource(vseed))
		want := make([]uint64, len(fields))
		h := NewCompactHeader(layout)
		for i := range fields {
			v := rng.Uint64()
			mask := ^uint64(0) >> uint(64-fields[i].Bits)
			want[i] = v & mask
			h.Set(i, v)
		}
		// Overwrite a random subset; fields are bit-packed with no
		// padding, so any overlap in the offsets corrupts a neighbour.
		for i := range fields {
			if rng.Intn(2) == 0 {
				v := rng.Uint64()
				want[i] = v & (^uint64(0) >> uint(64-fields[i].Bits))
				h.Set(i, v)
			}
		}
		for i := range fields {
			if got := h.Get(i); got != want[i] {
				t.Fatalf("field %d (%d bits): got %#x want %#x", i, fields[i].Bits, got, want[i])
			}
		}

		// Push/pop reference: the same values carried as word-aligned
		// per-layer headers must pop back identically, and must cost at
		// least as many bytes as the compacted block.
		ref := New(nil)
		for i := len(fields) - 1; i >= 0; i-- {
			var enc [8]byte
			binary.BigEndian.PutUint64(enc[:], want[i])
			ref.PushAligned(enc[:])
		}
		alignedLen := ref.HeaderLen()
		for i := range fields {
			got := binary.BigEndian.Uint64(ref.PopAligned(8))
			if got != want[i] {
				t.Fatalf("push/pop reference field %d: got %#x want %#x", i, got, want[i])
			}
		}
		if layout.Size() > alignedLen {
			t.Fatalf("compact header %dB larger than aligned reference %dB", layout.Size(), alignedLen)
		}

		// Message attach/detach round trip must be lossless and must
		// leave the header stack balanced.
		m := New([]byte("body"))
		m.PushUint32(0xCAFE) // pre-existing lower-layer header survives
		h.AttachTo(m)
		got := DetachFrom(m, layout)
		for i := range fields {
			if got.Get(i) != want[i] {
				t.Fatalf("detached field %d: got %#x want %#x", i, got.Get(i), want[i])
			}
		}
		if v := m.PopUint32(); v != 0xCAFE {
			t.Fatalf("attach/detach disturbed lower header: %#x", v)
		}
		if m.HeaderLen() != 0 {
			t.Fatal("residual header after detach")
		}
	})
}
