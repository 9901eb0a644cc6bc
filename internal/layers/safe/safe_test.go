package safe_test

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layers/safe"
	"horus/internal/layertest"
	"horus/internal/message"
)

func setup(t *testing.T) (*layertest.Harness, core.EndpointID, core.EndpointID) {
	t.Helper()
	h := layertest.New(t, safe.New)
	p1 := layertest.ID("p1", 2)
	p2 := layertest.ID("p2", 3)
	h.InstallView(h.Self(), p1, p2)
	h.Reset()
	return h, p1, p2
}

// identified builds a delivery carrying the MsgID a stability layer
// would attach.
func identified(body string, src core.EndpointID, seq uint64) *core.Event {
	return &core.Event{Type: core.UCast, Msg: message.New([]byte(body)),
		Source: src, ID: core.MsgID{Origin: src, Seq: seq}}
}

// matrixWith builds a stability matrix where origin's messages up to n
// are processed by everyone.
func matrixWith(members []core.EndpointID, origin core.EndpointID, n uint64) *core.StabilityMatrix {
	m := core.NewStabilityMatrix(members)
	for _, member := range members {
		m.Set(origin, member, n)
	}
	return m
}

func TestHoldsUntilStable(t *testing.T) {
	h, p1, p2 := setup(t)
	h.InjectUp(identified("m1", p1, 1))
	if got := h.UpOfType(core.UCast); len(got) != 0 {
		t.Fatal("delivered before stability")
	}
	// SAFE acknowledges on the application's behalf.
	if acks := h.DownOfType(core.DAck); len(acks) != 1 || acks[0].ID.Seq != 1 {
		t.Fatalf("acks = %v", acks)
	}
	members := []core.EndpointID{h.Self(), p1, p2}
	h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: matrixWith(members, p1, 1)}})
	got := h.UpOfType(core.UCast)
	if len(got) != 1 || string(got[0].Msg.Body()) != "m1" {
		t.Fatalf("delivered %v after stability", got)
	}
}

func TestPartialStabilityWithholds(t *testing.T) {
	h, p1, p2 := setup(t)
	h.InjectUp(identified("m1", p1, 1))
	members := []core.EndpointID{h.Self(), p1, p2}
	m := core.NewStabilityMatrix(members)
	m.Set(p1, h.Self(), 1)
	m.Set(p1, p1, 1) // p2 has not processed it
	h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: m}})
	if got := h.UpOfType(core.UCast); len(got) != 0 {
		t.Fatal("delivered while one member lags (not safe)")
	}
}

func TestReleasesInSeqOrderPerOrigin(t *testing.T) {
	h, p1, p2 := setup(t)
	h.InjectUp(identified("m2", p1, 2))
	h.InjectUp(identified("m1", p1, 1))
	members := []core.EndpointID{h.Self(), p1, p2}
	h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: matrixWith(members, p1, 2)}})
	got := h.UpOfType(core.UCast)
	if len(got) != 2 || string(got[0].Msg.Body()) != "m1" || string(got[1].Msg.Body()) != "m2" {
		t.Fatalf("release order wrong: %v", got)
	}
}

func TestViewChangeFlushesHeld(t *testing.T) {
	h, p1, p2 := setup(t)
	h.InjectUp(identified("held", p1, 1))
	v := core.NewView(core.ViewID{Seq: 2, Coord: h.Self()}, "test",
		[]core.EndpointID{h.Self(), p2})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v}})
	got := h.UpOfType(core.UCast)
	if len(got) != 1 || string(got[0].Msg.Body()) != "held" {
		t.Fatalf("view change did not release held messages: %v", got)
	}
}

func TestCastWithoutIdentityErrors(t *testing.T) {
	h, p1, _ := setup(t)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: message.New([]byte("anon")), Source: p1})
	if got := h.UpOfType(core.USystemError); len(got) != 1 {
		t.Fatalf("no SYSTEM_ERROR without a stability layer below: %v", got)
	}
}
