package safe_test

import (
	"slices"
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

// matrixWith builds a stability matrix where each origin's messages up
// to n are processed by everyone.
func matrixWith(members []core.EndpointID, n uint64, origins ...core.EndpointID) *core.StabilityMatrix {
	m := core.NewStabilityMatrix(members)
	for _, origin := range origins {
		for j := range members {
			m.Raise(slices.Index(members, origin), j, n)
		}
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
	h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: matrixWith(members, 1, p1)}})
	got := h.UpOfType(core.UCast)
	if len(got) != 1 || string(got[0].Msg.Body()) != "m1" {
		t.Fatalf("delivered %v after stability", got)
	}
	if held := h.G.Focus("SAFE").(*safe.Safe).Stats().Held; held != 1 {
		t.Fatalf("Stats().Held = %d, want 1", held)
	}
}

func TestPartialStabilityWithholds(t *testing.T) {
	h, p1, p2 := setup(t)
	h.InjectUp(identified("m1", p1, 1))
	members := []core.EndpointID{h.Self(), p1, p2}
	m := core.NewStabilityMatrix(members)
	r := slices.Index(members, p1)
	m.Raise(r, slices.Index(members, h.Self()), 1)
	m.Raise(r, r, 1) // p2 has not processed it
	h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: m}})
	if got := h.UpOfType(core.UCast); len(got) != 0 {
		t.Fatal("delivered while one member lags (not safe)")
	}
}

// An origin's casts arrive in sequence order (SAFE requires P3 below),
// and a stability update releases the stable prefix of them, in that
// order, holding the rest.
func TestReleasesInSeqOrderPerOrigin(t *testing.T) {
	h, p1, p2 := setup(t)
	for i, body := range []string{"m1", "m2", "m3"} {
		h.InjectUp(identified(body, p1, uint64(i+1)))
	}
	members := []core.EndpointID{h.Self(), p1, p2}
	h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: matrixWith(members, 2, p1)}})
	got := h.UpOfType(core.UCast)
	if len(got) != 2 || string(got[0].Msg.Body()) != "m1" || string(got[1].Msg.Body()) != "m2" {
		t.Fatalf("release of seq ≤ 2 wrong: %v", got)
	}
	h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: matrixWith(members, 3, p1)}})
	if got := h.UpOfType(core.UCast); len(got) != 3 || string(got[2].Msg.Body()) != "m3" {
		t.Fatalf("release of seq 3 wrong: %v", got)
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

// When one STABLE upcall makes casts of two origins stable, they reach
// the application origins oldest first, in the same order on every run.
func TestReleasesOriginsOldestFirst(t *testing.T) {
	h, p1, p2 := setup(t)
	members := []core.EndpointID{h.Self(), p1, p2}
	for seq := uint64(1); seq <= 64; seq++ {
		h.Reset()
		h.InjectUp(identified("from p2", p2, seq))
		h.InjectUp(identified("from p1", p1, seq))
		m := matrixWith(members, seq, p1, p2)
		h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: m}})
		got := h.UpOfType(core.UCast)
		if len(got) != 2 || got[0].Source != p1 || got[1].Source != p2 {
			t.Fatalf("round %d released %v, want p1's cast, then p2's", seq, got)
		}
	}
}
