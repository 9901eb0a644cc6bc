package nfrag_test

import (
	"bytes"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/frag"
	"horus/internal/layers/nfrag"
	"horus/internal/layertest"
	"horus/internal/message"
)

func TestOutOfOrderReassembly(t *testing.T) {
	h := layertest.New(t, nfrag.New)
	body := bytes.Repeat([]byte("0123456789"), 6*nfrag.FragmentSize/10)
	h.InjectDown(core.NewCast(message.New(body)))
	frags := h.DownOfType(core.DCast)
	if len(frags) < 6 {
		t.Fatalf("%d fragments, want >= 6", len(frags))
	}
	src := layertest.ID("p", 2)
	// Deliver in reverse order — NFRAG cannot assume FIFO below.
	for i := len(frags) - 1; i >= 0; i-- {
		h.InjectUp(&core.Event{Type: core.UCast, Msg: frags[i].Msg.Clone(), Source: src})
	}
	got := h.LastUp()
	if got == nil || !bytes.Equal(got.Msg.Body(), body) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestDuplicateFragmentsIgnored(t *testing.T) {
	h := layertest.New(t, nfrag.New)
	body := bytes.Repeat([]byte("z"), 3*nfrag.FragmentSize)
	h.InjectDown(core.NewCast(message.New(body)))
	frags := h.DownOfType(core.DCast)
	src := layertest.ID("p", 2)
	for _, f := range frags {
		h.InjectUp(&core.Event{Type: core.UCast, Msg: f.Msg.Clone(), Source: src})
		h.InjectUp(&core.Event{Type: core.UCast, Msg: f.Msg.Clone(), Source: src})
	}
	if got := h.UpOfType(core.UCast); len(got) != 1 {
		t.Fatalf("delivered %d messages under duplication, want 1", len(got))
	}
}

func TestIncompleteReassemblyTimesOut(t *testing.T) {
	h := layertest.New(t, nfrag.New)
	body := bytes.Repeat([]byte("q"), 3*nfrag.FragmentSize)
	h.InjectDown(core.NewCast(message.New(body)))
	frags := h.DownOfType(core.DCast)
	src := layertest.ID("p", 2)
	// Lose the last fragment.
	for _, f := range frags[:len(frags)-1] {
		h.InjectUp(&core.Event{Type: core.UCast, Msg: f.Msg.Clone(), Source: src})
	}
	h.Run(3 * time.Second) // the reassembly timeout is a second
	if got := h.UpOfType(core.UCast); len(got) != 0 {
		t.Fatalf("incomplete message delivered: %v", got)
	}
	nf := h.G.Focus("NFRAG").(*nfrag.Nfrag)
	if nf.Stats().Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", nf.Stats().Abandoned)
	}
	// The late fragment after abandonment must not resurrect it.
	h.InjectUp(&core.Event{Type: core.UCast, Msg: frags[len(frags)-1].Msg.Clone(), Source: src})
	if got := h.UpOfType(core.UCast); len(got) != 0 {
		t.Fatal("abandoned message resurrected by a late fragment")
	}
}

// TestReassemblyBound pins what a peer can make a member hold: one
// message of frag.MaxMessage bytes in wire form. A fragment announcing
// more fragments than that comes to makes no assembly, an assembly whose
// held bytes would pass it is dropped and counted at once, with no sweep
// to wait for, and Down refuses a larger message; a message at the bound
// still makes the round trip.
func TestReassemblyBound(t *testing.T) {
	src := layertest.ID("p", 2)
	fragment := func(idx, count uint64, size int) *core.Event {
		m := message.New(make([]byte, size))
		m.PushUint(count)
		m.PushUint(idx)
		m.PushUint(1)
		return &core.Event{Type: core.UCast, Msg: m, Source: src}
	}
	// roundTrip casts a message of size bytes in wire form and feeds every
	// fragment it was cut into back up.
	roundTrip := func(size int) func(*layertest.Harness) {
		return func(h *layertest.Harness) {
			h.InjectDown(core.NewCast(message.New(make([]byte, size-message.UintLen(0)))))
			for _, f := range h.DownOfType(core.DCast) {
				h.InjectUp(&core.Event{Type: core.UCast, Msg: f.Msg.Clone(), Source: src})
			}
		}
	}
	for _, tc := range []struct {
		name string
		feed func(*layertest.Harness)
		// what reached the top, and the layer's count of abandoned
		// assemblies before the sweep and after it had its chance
		delivered, refused, abandoned, swept int
	}{
		{"count past the bound makes no assembly",
			func(h *layertest.Harness) { h.InjectUp(fragment(0, 1<<32-1, 16)) }, 0, 0, 0, 0},
		{"count of 2^64-1 makes no assembly",
			func(h *layertest.Harness) { h.InjectUp(fragment(0, 1<<64-1, 16)) }, 0, 0, 0, 0},
		{"count that truncates to a small uint32 makes no assembly",
			func(h *layertest.Harness) { h.InjectUp(fragment(0, 1<<32+1, 16)) }, 0, 0, 0, 0},
		{"count at the bound makes one",
			func(h *layertest.Harness) { h.InjectUp(fragment(0, frag.MaxMessage/nfrag.FragmentSize, 16)) }, 0, 0, 0, 1},
		{"held bytes past the bound drop the assembly",
			func(h *layertest.Harness) {
				for i := uint64(0); i < 17; i++ {
					h.InjectUp(fragment(i, 17, 64<<10))
				}
			}, 0, 0, 1, 1},
		{"a message at the bound reassembles", roundTrip(frag.MaxMessage), 1, 0, 0, 0},
		{"a message past the bound is refused", roundTrip(frag.MaxMessage + 1), 0, 1, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := layertest.New(t, nfrag.New)
			layer := h.G.Focus("NFRAG").(*nfrag.Nfrag)
			tc.feed(h)
			abandoned := layer.Stats().Abandoned
			h.Run(3 * time.Second) // past the one-second reassembly timeout
			delivered, refused := len(h.UpOfType(core.UCast)), len(h.UpOfType(core.USystemError))
			swept := layer.Stats().Abandoned
			if delivered != tc.delivered || refused != tc.refused || abandoned != tc.abandoned || swept != tc.swept {
				t.Errorf("delivered %d, refused %d, abandoned %d then %d; want %d, %d, %d then %d",
					delivered, refused, abandoned, swept, tc.delivered, tc.refused, tc.abandoned, tc.swept)
			}
		})
	}
}

func TestDistinctMessagesDoNotMix(t *testing.T) {
	h := layertest.New(t, nfrag.New)
	h.InjectDown(core.NewCast(message.New(bytes.Repeat([]byte("A"), 3*nfrag.FragmentSize))))
	fa := h.DownOfType(core.DCast)
	h.Reset()
	h.InjectDown(core.NewCast(message.New(bytes.Repeat([]byte("B"), 3*nfrag.FragmentSize))))
	fb := h.DownOfType(core.DCast)
	h.Reset()
	src := layertest.ID("p", 2)
	// Interleave fragments of the two messages from the same source.
	for i := 0; i < len(fa) || i < len(fb); i++ {
		if i < len(fa) {
			h.InjectUp(&core.Event{Type: core.UCast, Msg: fa[i].Msg.Clone(), Source: src})
		}
		if i < len(fb) {
			h.InjectUp(&core.Event{Type: core.UCast, Msg: fb[i].Msg.Clone(), Source: src})
		}
	}
	ups := h.UpOfType(core.UCast)
	if len(ups) != 2 {
		t.Fatalf("delivered %d, want 2", len(ups))
	}
	for _, ev := range ups {
		b := ev.Msg.Body()
		for _, c := range b {
			if c != b[0] {
				t.Fatal("fragments of different messages mixed")
			}
		}
	}
}
