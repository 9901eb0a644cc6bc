package chaosnet

import (
	"testing"

	"horus/internal/netsim"
)

// twoNodes boots a fabric with members a and b and returns their
// attachment records for route()-driven rule-table tests.
func twoNodes(t *testing.T, seed int64) (f *Fabric, na, nb *node) {
	t.Helper()
	f = New(Config{Seed: seed})
	t.Cleanup(f.Close)
	epA := f.NewEndpoint("a")
	epB := f.NewEndpoint("b")
	f.mu.Lock()
	na, nb = f.nodes[epA.ID()], f.nodes[epB.ID()]
	f.mu.Unlock()
	return f, na, nb
}

// TestProxyEgressCongestedCounter: frames that queue behind earlier
// traffic in the sender's shared egress bucket land in the Congested
// ledger — the same decision netsim makes, via the same shared math —
// and all of them are eventually forwarded.
func TestProxyEgressCongestedCounter(t *testing.T) {
	f, na, nb := twoNodes(t, 11)
	// 3-byte frames against 10 KB/s: each occupies ~0.3ms of budget,
	// so a tight burst queues but drains in well under waitFor's 2s.
	f.SetHost(na.id, netsim.Host{EgressBudget: 10 * 1024})

	frame := []byte{0, 0, 'x'}
	for i := 0; i < 5; i++ {
		f.route(nb, na.real.String(), frame)
	}
	waitFor(t, func() bool { return f.Stats().Delivered == 5 })
	st := f.Stats()
	if st.Congested == 0 {
		t.Fatalf("burst of 5 never queued in the egress bucket: %+v", st)
	}
	if st.CollapseDropped != 0 {
		t.Fatalf("default queue dropped frames: %+v", st)
	}
}

// TestProxyEgressBudgetSmallerThanFrame: a budget and queue smaller
// than a single frame produce delay, never a blackhole — the frame
// that finds the backlog empty is always admitted.
func TestProxyEgressBudgetSmallerThanFrame(t *testing.T) {
	f, na, nb := twoNodes(t, 12)
	// A 3-byte frame is larger than the whole queue bound; the budget
	// serializes it in ~30ms. Admission must still happen.
	f.SetHost(na.id, netsim.Host{EgressBudget: 100, EgressQueue: 1})

	f.route(nb, na.real.String(), []byte{0, 0, 'x'})
	waitFor(t, func() bool { return f.Stats().Delivered == 1 })
	if st := f.Stats(); st.CollapseDropped != 0 {
		t.Fatalf("lone frame dropped by an empty queue: %+v", st)
	}
}

// TestProxyEgressQueueOverflowDrops: sustained overload past the
// bounded egress queue becomes CollapseDropped loss, and ClearHost
// lifts the budget again.
func TestProxyEgressQueueOverflowDrops(t *testing.T) {
	f, na, nb := twoNodes(t, 13)
	// 3-byte frames at 100 B/s occupy 30ms of budget each; a queue of
	// 6 bytes holds two frames, so a burst of 20 must overflow.
	f.SetHost(na.id, netsim.Host{EgressBudget: 100, EgressQueue: 6})

	frame := []byte{0, 0, 'x'}
	for i := 0; i < 20; i++ {
		f.route(nb, na.real.String(), frame)
	}
	waitFor(t, func() bool {
		st := f.Stats()
		return st.CollapseDropped > 0 && st.Delivered+st.CollapseDropped == 20
	})
	st := f.Stats()
	if st.Delivered == 0 {
		t.Fatalf("bounded queue blackholed the host: %+v", st)
	}

	// ClearHost drops the budget and the accumulated horizon: the next
	// frame forwards promptly without touching the collapse ledger.
	f.ClearHost(na.id)
	before := f.Stats().CollapseDropped
	f.route(nb, na.real.String(), frame)
	waitFor(t, func() bool { return f.Stats().Delivered == st.Delivered+1 })
	if after := f.Stats().CollapseDropped; after != before {
		t.Fatalf("ClearHost did not lift the budget: drops grew %d -> %d", before, after)
	}
}

// TestProxySetHostResetsHorizon: re-issuing SetHost (as a schedule
// might when two squeezes overlap) resets the busy-until horizon, so
// a stale backlog from the old budget cannot drop fresh traffic.
func TestProxySetHostResetsHorizon(t *testing.T) {
	f, na, nb := twoNodes(t, 14)
	f.SetHost(na.id, netsim.Host{EgressBudget: 10, EgressQueue: 4})
	frame := []byte{0, 0, 'x'}
	// One admitted frame parks ~300ms of backlog at 10 B/s.
	f.route(nb, na.real.String(), frame)

	// A generous replacement budget starts from a clean bucket: the
	// next frame must be admitted, not dropped against old backlog.
	f.SetHost(na.id, netsim.Host{EgressBudget: 1 << 20})
	f.route(nb, na.real.String(), frame)
	waitFor(t, func() bool { return f.Stats().Delivered == 2 })
	if st := f.Stats(); st.CollapseDropped != 0 {
		t.Fatalf("stale horizon survived SetHost: %+v", st)
	}
}

// TestProxyEgressSharedAcrossLinks: one member's egress bucket is
// shared across destinations — a fan-out burst congests even though
// each directed link is idle. This is exactly the shape the per-link
// Bandwidth rule cannot express.
func TestProxyEgressSharedAcrossLinks(t *testing.T) {
	f := New(Config{Seed: 15})
	t.Cleanup(f.Close)
	epA := f.NewEndpoint("a")
	epB := f.NewEndpoint("b")
	epC := f.NewEndpoint("c")
	f.mu.Lock()
	na, nb, nc := f.nodes[epA.ID()], f.nodes[epB.ID()], f.nodes[epC.ID()]
	f.mu.Unlock()

	f.SetHost(na.id, netsim.Host{EgressBudget: 10 * 1024})
	frame := []byte{0, 0, 'x'}
	for i := 0; i < 3; i++ {
		f.route(nb, na.real.String(), frame)
		f.route(nc, na.real.String(), frame)
	}
	waitFor(t, func() bool { return f.Stats().Delivered == 6 })
	if st := f.Stats(); st.Congested == 0 {
		t.Fatalf("fan-out burst never congested the shared bucket: %+v", st)
	}
	if st := f.Stats(); st.Throttled != 0 {
		t.Fatalf("no link has a bandwidth cap, yet Throttled = %d", st.Throttled)
	}
}
