package merge_test

import (
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/merge"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/wire"
)

func setup(t *testing.T) *layertest.Harness {
	t.Helper()
	return layertest.New(t, merge.NewWith(merge.WithBeaconPeriod(50*time.Millisecond)))
}

// beacon builds a locate beacon as a peer MERGE layer would.
func beacon(coord core.EndpointID, viewSeq uint64) *core.Event {
	m := message.New(nil)
	wire.PushViewID(m, core.ViewID{Seq: viewSeq, Coord: coord})
	wire.PushEndpointID(m, coord)
	return &core.Event{Type: core.ULocate, Msg: m, Source: coord}
}

func TestCoordinatorBeacons(t *testing.T) {
	h := setup(t)
	h.InstallView(h.Self()) // we coordinate our singleton view
	h.Run(200 * time.Millisecond)
	if got := len(h.DownOfType(core.DLocate)); got < 3 {
		t.Fatalf("beacons sent = %d, want several", got)
	}
}

func TestNonCoordinatorStaysQuiet(t *testing.T) {
	h := setup(t)
	older := layertest.ID("0older", 0)
	h.InstallView(h.Self(), older) // the peer coordinates
	h.Run(300 * time.Millisecond)
	if got := len(h.DownOfType(core.DLocate)); got != 0 {
		t.Fatalf("non-coordinator sent %d beacons", got)
	}
}

func TestMergesTowardOlderCoordinator(t *testing.T) {
	h := setup(t)
	h.InstallView(h.Self())
	older := layertest.ID("0older", 0)
	h.InjectUp(beacon(older, 4))
	merges := h.DownOfType(core.DMerge)
	if len(merges) != 1 || merges[0].Contact != older {
		t.Fatalf("merge downcalls = %v", merges)
	}
}

func TestIgnoresYoungerCoordinator(t *testing.T) {
	h := setup(t)
	h.InstallView(h.Self())
	younger := layertest.ID("younger", 99)
	h.InjectUp(beacon(younger, 4))
	if got := h.DownOfType(core.DMerge); len(got) != 0 {
		t.Fatalf("merged toward a younger coordinator: %v", got)
	}
}

func TestIgnoresOwnViewMembers(t *testing.T) {
	h := setup(t)
	older := layertest.ID("0older", 0)
	h.InstallView(h.Self(), older)
	h.InjectUp(beacon(older, 4))
	if got := h.DownOfType(core.DMerge); len(got) != 0 {
		t.Fatalf("merged toward a member of our own view: %v", got)
	}
}

func TestOneAttemptAtATime(t *testing.T) {
	h := setup(t)
	h.InstallView(h.Self())
	o1 := layertest.ID("0older", 0)
	o2 := layertest.ID("00oldest", 0) // distinct, also older than us
	h.InjectUp(beacon(o1, 4))
	h.InjectUp(beacon(o2, 9))
	if got := h.DownOfType(core.DMerge); len(got) != 1 {
		t.Fatalf("merge attempts = %d, want 1 (one at a time)", len(got))
	}
	// A denial clears the attempt; the next beacon may retry.
	h.InjectUp(&core.Event{Type: core.UMergeDenied, Detail: &core.Detail{Contact: o1, Reason: "busy"}})
	h.InjectUp(beacon(o1, 4))
	if got := h.DownOfType(core.DMerge); len(got) != 2 {
		t.Fatalf("no retry after denial: %d", len(got))
	}
}

func TestViewChangeResetsAttempt(t *testing.T) {
	h := setup(t)
	h.InstallView(h.Self())
	older := layertest.ID("0older", 0)
	h.InjectUp(beacon(older, 4))
	// The merge completes: a new view containing both installs.
	v := core.NewView(core.ViewID{Seq: 5, Coord: older}, "test",
		[]core.EndpointID{older, h.Self()})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v}})
	// Another beacon from the (now in-view) coordinator does nothing.
	h.InjectUp(beacon(older, 5))
	if got := h.DownOfType(core.DMerge); len(got) != 1 {
		t.Fatalf("merge attempts = %d after joining, want 1", len(got))
	}
}

func TestMergeDumpAndDestroy(t *testing.T) {
	h := setup(t)
	h.InstallView(h.Self())
	if d := h.G.Dump(); d == "" {
		t.Fatal("empty dump")
	}
	// Destroy cancels the beacon timer; no beacons after.
	h.InjectDown(&core.Event{Type: core.DDestroy})
	h.Reset()
	h.Run(300 * time.Millisecond)
	if got := len(h.DownOfType(core.DLocate)); got != 0 {
		t.Fatalf("%d beacons after destroy", got)
	}
}
