package integration

import (
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/netsim"
)

// TestCoordinatorCrashDuringFlush kills the flush coordinator (the
// oldest member) at the same instant as another member, so the flush
// it starts can never finish: the flush-timeout watchdog must promote
// the next-oldest survivor, which restarts the round and installs the
// view (paper §5: "if processes fail during the process, a new round
// of the flush protocol may start up immediately").
func TestCoordinatorCrashDuringFlush(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 211, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps, groups, cols := buildGroup(t, net, 4, vsStack)

	// Some traffic so there is unstable state to flush.
	base := net.Now()
	for i := 0; i < 8; i++ {
		i := i
		net.At(base+time.Duration(i)*4*time.Millisecond, func() {
			groups[i%4].Cast(message.New([]byte{byte('x'), byte(i)}))
		})
	}
	// d crashes; then, just as the coordinator (a, the oldest) has
	// started flushing, a crashes too.
	net.At(base+50*time.Millisecond, func() { net.Crash(eps[3].ID()) })
	net.At(base+200*time.Millisecond, func() { net.Crash(eps[0].ID()) })
	net.RunFor(8 * time.Second)

	for _, c := range []*vsCollector{cols[1], cols[2]} {
		v := c.lastView()
		if v == nil || v.Size() != 2 {
			t.Fatalf("%s: final view %v, want the 2 survivors", c.name, v)
		}
		if v.Contains(eps[0].ID()) || v.Contains(eps[3].ID()) {
			t.Fatalf("%s: dead member still in view %v", c.name, v)
		}
	}
	if cols[1].lastView().ID != cols[2].lastView().ID {
		t.Fatalf("survivors disagree: %v vs %v", cols[1].lastView(), cols[2].lastView())
	}
	// The promoted coordinator is the next-oldest survivor, b.
	if coord := cols[1].lastView().ID.Coord; coord != eps[1].ID() {
		t.Errorf("new view coordinated by %v, want b", coord)
	}
	assertIdenticalDeliveriesVS(t, cols[1], cols[2])
}

// assertIdenticalDeliveriesVS compares two collectors' per-view sets.
func assertIdenticalDeliveriesVS(t *testing.T, a, b *vsCollector) {
	t.Helper()
	for seq, msgs := range a.casts {
		inB := false
		for _, v := range b.views {
			if v.ID.Seq == seq {
				inB = true
			}
		}
		if !inB {
			continue
		}
		set := map[string]bool{}
		for _, p := range b.casts[seq] {
			set[p] = true
		}
		for _, p := range msgs {
			if !set[p] {
				t.Errorf("view %d: %s delivered %q, %s did not", seq, a.name, p, b.name)
			}
		}
	}
}

// TestMergeTargetDies covers the requester's give-up path: B keeps
// retrying a merge toward a dead contact, exhausts its attempts, and
// reports MERGE_DENIED ("merge target unresponsive") — after which it
// is still fully functional and can merge elsewhere.
func TestMergeTargetDies(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 223, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	epA := net.NewEndpoint("a")
	epB := net.NewEndpoint("b")
	epC := net.NewEndpoint("c")
	ca, cb, cc := newVSCollector("a"), newVSCollector("b"), newVSCollector("c")
	var denied []string
	_, err := epA.Join("grp", vsStack(), ca.handler())
	if err != nil {
		t.Fatal(err)
	}
	gb, err := epB.Join("grp", vsStack(), func(ev *core.Event) {
		if ev.Type == core.UMergeDenied {
			denied = append(denied, ev.Reason)
		}
		cb.handler()(ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	gc, err := epC.Join("grp", vsStack(), cc.handler())
	if err != nil {
		t.Fatal(err)
	}

	// a dies before b's merge can complete.
	net.At(10*time.Millisecond, func() { net.Crash(epA.ID()) })
	net.At(20*time.Millisecond, func() { gb.Merge(epA.ID()) })
	net.RunFor(6 * time.Second)

	if len(denied) == 0 {
		t.Fatal("no MERGE_DENIED after the target died")
	}
	// b is alive and can still merge with c.
	net.At(net.Now(), func() { gc.Merge(epB.ID()) })
	net.RunFor(2 * time.Second)
	if v := cb.lastView(); v == nil || v.Size() != 2 || !v.Contains(epC.ID()) {
		t.Fatalf("b could not merge after the failed attempt: %v", cb.lastView())
	}
}

// TestSymmetricSimultaneousMerge drives the exact tiebreak: two
// singleton coordinators request merges into each other in the same
// instant. The older must absorb the younger.
func TestSymmetricSimultaneousMerge(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 227, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	epA := net.NewEndpoint("a")
	epB := net.NewEndpoint("b")
	ca, cb := newVSCollector("a"), newVSCollector("b")
	ga, err := epA.Join("grp", vsStack(), ca.handler())
	if err != nil {
		t.Fatal(err)
	}
	gb, err := epB.Join("grp", vsStack(), cb.handler())
	if err != nil {
		t.Fatal(err)
	}
	net.At(10*time.Millisecond, func() {
		ga.Merge(epB.ID())
		gb.Merge(epA.ID())
	})
	net.RunFor(4 * time.Second)

	va, vb := ca.lastView(), cb.lastView()
	if va == nil || vb == nil || va.Size() != 2 || vb.Size() != 2 || va.ID != vb.ID {
		t.Fatalf("symmetric merge failed: a=%v b=%v", va, vb)
	}
	if va.ID.Coord != epA.ID() {
		t.Errorf("merged view coordinated by %v, want the older endpoint a", va.ID.Coord)
	}
}
