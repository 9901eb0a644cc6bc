package causal_test

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layers/causal"
	"horus/internal/layertest"
	"horus/internal/message"
)

// stamped builds an upcall the way TSTAMP would deliver it.
func stamped(body string, src core.EndpointID, vt []uint64) *core.Event {
	return &core.Event{Type: core.UCast, Msg: message.New([]byte(body)),
		Source: src, Timestamp: vt}
}

func setup(t *testing.T) (*layertest.Harness, core.EndpointID, core.EndpointID) {
	t.Helper()
	h := layertest.New(t, causal.New)
	p1 := layertest.ID("p1", 2)
	p2 := layertest.ID("p2", 3)
	h.InstallView(h.Self(), p1, p2) // ranks: self=0, p1=1, p2=2
	h.Reset()
	return h, p1, p2
}

func delivered(h *layertest.Harness) []string {
	var out []string
	for _, ev := range h.UpOfType(core.UCast) {
		out = append(out, string(ev.Msg.Body()))
	}
	return out
}

func TestInOrderDeliversImmediately(t *testing.T) {
	h, p1, _ := setup(t)
	h.InjectUp(stamped("m1", p1, []uint64{0, 1, 0}))
	h.InjectUp(stamped("m2", p1, []uint64{0, 2, 0}))
	got := delivered(h)
	if len(got) != 2 || got[0] != "m1" || got[1] != "m2" {
		t.Fatalf("delivered %v", got)
	}
}

func TestEffectWaitsForCause(t *testing.T) {
	h, p1, p2 := setup(t)
	// p2's message depends on p1's first (vector entry 1 = 1), but the
	// cause has not arrived yet.
	h.InjectUp(stamped("effect", p2, []uint64{0, 1, 1}))
	if got := delivered(h); len(got) != 0 {
		t.Fatalf("effect delivered before cause: %v", got)
	}
	h.InjectUp(stamped("cause", p1, []uint64{0, 1, 0}))
	got := delivered(h)
	if len(got) != 2 || got[0] != "cause" || got[1] != "effect" {
		t.Fatalf("delivered %v, want [cause effect]", got)
	}
}

func TestSenderFIFOGapBlocks(t *testing.T) {
	h, p1, _ := setup(t)
	h.InjectUp(stamped("third", p1, []uint64{0, 3, 0}))
	h.InjectUp(stamped("first", p1, []uint64{0, 1, 0}))
	if got := delivered(h); len(got) != 1 || got[0] != "first" {
		t.Fatalf("delivered %v, want [first] (second still missing)", got)
	}
	h.InjectUp(stamped("second", p1, []uint64{0, 2, 0}))
	got := delivered(h)
	if len(got) != 3 || got[2] != "third" {
		t.Fatalf("delivered %v, want first second third", got)
	}
}

func TestConcurrentMessagesDeliverEitherOrder(t *testing.T) {
	h, p1, p2 := setup(t)
	// Two causally concurrent messages: both deliverable regardless of
	// arrival order.
	h.InjectUp(stamped("x", p2, []uint64{0, 0, 1}))
	h.InjectUp(stamped("y", p1, []uint64{0, 1, 0}))
	if got := delivered(h); len(got) != 2 {
		t.Fatalf("delivered %v", got)
	}
}

func TestViewChangeReleasesWaiting(t *testing.T) {
	h, _, p2 := setup(t)
	h.InjectUp(stamped("orphan", p2, []uint64{0, 5, 1}))
	if got := delivered(h); len(got) != 0 {
		t.Fatal("orphan delivered early")
	}
	v := core.NewView(core.ViewID{Seq: 2, Coord: h.Self()}, "test",
		[]core.EndpointID{h.Self(), p2})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v}})
	if got := delivered(h); len(got) != 1 || got[0] != "orphan" {
		t.Fatalf("view change did not flush the buffer: %v", got)
	}
}

func TestUnstampedCastErrors(t *testing.T) {
	h, p1, _ := setup(t)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: message.New([]byte("raw")), Source: p1})
	if got := h.UpOfType(core.USystemError); len(got) != 1 {
		t.Fatalf("no SYSTEM_ERROR for unstamped cast: %v", got)
	}
}
