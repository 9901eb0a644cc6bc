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
	h := layertest.New(t, nfrag.NewWith(nfrag.WithMaxFragment(64)))
	body := bytes.Repeat([]byte("0123456789"), 40)
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
	h := layertest.New(t, nfrag.NewWith(nfrag.WithMaxFragment(64)))
	body := bytes.Repeat([]byte("z"), 150)
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
	h := layertest.New(t, nfrag.NewWith(
		nfrag.WithMaxFragment(64),
		nfrag.WithTimeout(100*time.Millisecond),
	))
	body := bytes.Repeat([]byte("q"), 200)
	h.InjectDown(core.NewCast(message.New(body)))
	frags := h.DownOfType(core.DCast)
	src := layertest.ID("p", 2)
	// Lose the last fragment.
	for _, f := range frags[:len(frags)-1] {
		h.InjectUp(&core.Event{Type: core.UCast, Msg: f.Msg.Clone(), Source: src})
	}
	h.Run(300 * time.Millisecond)
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
// held bytes would pass it is dropped and counted, with no sweep to wait
// for, and Down refuses a larger message; a message at the bound still
// makes the round trip.
func TestReassemblyBound(t *testing.T) {
	src := layertest.ID("p", 2)
	fragment := func(idx, count uint32, size int) *core.Event {
		m := message.New(make([]byte, size))
		m.PushUint32(count)
		m.PushUint32(idx)
		m.PushUint64(1)
		return &core.Event{Type: core.UCast, Msg: m, Source: src}
	}
	// roundTrip casts a message of size bytes in wire form and feeds every
	// fragment it was cut into back up.
	roundTrip := func(size int) func(*layertest.Harness) {
		return func(h *layertest.Harness) {
			h.InjectDown(core.NewCast(message.New(make([]byte, size-4))))
			for _, f := range h.DownOfType(core.DCast) {
				h.InjectUp(&core.Event{Type: core.UCast, Msg: f.Msg.Clone(), Source: src})
			}
		}
	}
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		feed    func(*layertest.Harness)
		// what reached the top, and the layer's count of abandoned
		// assemblies after the sweep had its chance
		delivered, refused, abandoned int
	}{
		{"count past the bound makes no assembly", 100 * time.Millisecond,
			func(h *layertest.Harness) { h.InjectUp(fragment(0, 1<<32-1, 16)) }, 0, 0, 0},
		{"count at the bound makes one", 100 * time.Millisecond,
			func(h *layertest.Harness) { h.InjectUp(fragment(0, frag.MaxMessage/16, 16)) }, 0, 0, 1},
		{"held bytes past the bound drop the assembly", 0,
			func(h *layertest.Harness) {
				for i := uint32(0); i < 17; i++ {
					h.InjectUp(fragment(i, 17, 64<<10))
				}
			}, 0, 0, 1},
		{"a message at the bound reassembles", 0, roundTrip(frag.MaxMessage), 1, 0, 0},
		{"a message past the bound is refused", 0, roundTrip(frag.MaxMessage + 1), 0, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := layertest.New(t, nfrag.NewWith(nfrag.WithTimeout(tc.timeout)))
			tc.feed(h)
			h.Run(300 * time.Millisecond)
			delivered, refused := len(h.UpOfType(core.UCast)), len(h.UpOfType(core.USystemError))
			abandoned := h.G.Focus("NFRAG").(*nfrag.Nfrag).Stats().Abandoned
			if delivered != tc.delivered || refused != tc.refused || abandoned != tc.abandoned {
				t.Errorf("delivered %d, refused %d, abandoned %d; want %d, %d, %d",
					delivered, refused, abandoned, tc.delivered, tc.refused, tc.abandoned)
			}
		})
	}
}

func TestDistinctMessagesDoNotMix(t *testing.T) {
	h := layertest.New(t, nfrag.NewWith(nfrag.WithMaxFragment(64)))
	h.InjectDown(core.NewCast(message.New(bytes.Repeat([]byte("A"), 150))))
	fa := h.DownOfType(core.DCast)
	h.Reset()
	h.InjectDown(core.NewCast(message.New(bytes.Repeat([]byte("B"), 150))))
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
