package tools_test

import (
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/tools"
)

// These unit tests drive the tools' handlers directly; end-to-end
// behaviour over real stacks is covered in internal/integration.

func view(seq uint64, members ...core.EndpointID) *core.View {
	return core.NewView(core.ViewID{Seq: seq, Coord: members[0]}, "g", members)
}

func id(site string, birth uint64) core.EndpointID {
	return core.EndpointID{Site: site, Birth: birth}
}

func TestRSMBuffersUntilSnapshot(t *testing.T) {
	var applied []string
	r := tools.NewRSM(func(cmd []byte) { applied = append(applied, string(cmd)) },
		func() []byte { return []byte("snap") },
		func(state []byte) { applied = append(applied, "restored:"+string(state)) })
	h := r.Handler()

	// Commands before the snapshot are buffered, not applied.
	h(&core.Event{Type: core.UCast, Msg: msg("early1"), Source: id("p", 2)})
	h(&core.Event{Type: core.UCast, Msg: msg("early2"), Source: id("p", 2)})
	if len(applied) != 0 {
		t.Fatalf("applied before sync: %v", applied)
	}
	if r.Synced() {
		t.Fatal("synced without snapshot")
	}

	// Snapshot arrives: restore, then the buffered commands in order.
	h(&core.Event{Type: core.USend, Msg: msg("\x01the-state"), Source: id("p", 2)})
	want := []string{"restored:the-state", "early1", "early2"}
	if len(applied) != 3 {
		t.Fatalf("applied = %v, want %v", applied, want)
	}
	for i := range want {
		if applied[i] != want[i] {
			t.Fatalf("applied = %v, want %v", applied, want)
		}
	}
	if !r.Synced() || r.Applied() != 2 {
		t.Errorf("Synced=%v Applied=%d", r.Synced(), r.Applied())
	}

	// Later commands apply immediately.
	h(&core.Event{Type: core.UCast, Msg: msg("live"), Source: id("p", 2)})
	if applied[len(applied)-1] != "live" {
		t.Errorf("live command not applied: %v", applied)
	}
}

func TestRSMBootstrapAppliesBuffered(t *testing.T) {
	var applied []string
	r := tools.NewRSM(func(cmd []byte) { applied = append(applied, string(cmd)) },
		func() []byte { return nil }, func([]byte) {})
	h := r.Handler()
	h(&core.Event{Type: core.UCast, Msg: msg("pre"), Source: id("p", 2)})
	r.Bootstrap()
	if len(applied) != 1 || applied[0] != "pre" {
		t.Fatalf("applied = %v", applied)
	}
	if !r.Synced() {
		t.Fatal("not synced after bootstrap")
	}
}

func TestRSMSnapshotlessIsAlwaysSynced(t *testing.T) {
	r := tools.NewRSM(func([]byte) {}, nil, nil)
	if !r.Synced() {
		t.Fatal("snapshotless RSM must start synced")
	}
}

func TestLockManagerQueueSemantics(t *testing.T) {
	a, b, c := id("a", 1), id("b", 2), id("c", 3)
	lm := tools.NewLockManager()
	var acquired []string
	lm.OnAcquire = func(name string) { acquired = append(acquired, name) }
	// Bind via a throwaway endpoint so self is "a".
	ep := core.NewEndpoint(a, nullTransport{})
	g, err := ep.Join("g", core.StackSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lm.Bind(g)
	h := lm.Handler()

	// The total order says: b requests, then a, then c.
	h(&core.Event{Type: core.UCast, Msg: msg("\x01L"), Source: b})
	h(&core.Event{Type: core.UCast, Msg: msg("\x01L"), Source: a})
	h(&core.Event{Type: core.UCast, Msg: msg("\x01L"), Source: c})
	if holder, ok := lm.Holder("L"); !ok || holder != b {
		t.Fatalf("holder = %v %v, want b", holder, ok)
	}
	if lm.HeldByMe("L") {
		t.Fatal("a thinks it holds the lock while b does")
	}
	// Duplicate request from b is ignored.
	h(&core.Event{Type: core.UCast, Msg: msg("\x01L"), Source: b})
	// b releases: a (next in queue) acquires; the callback fires.
	h(&core.Event{Type: core.UCast, Msg: msg("\x02L"), Source: b})
	if holder, _ := lm.Holder("L"); holder != a {
		t.Fatalf("holder after release = %v, want a", holder)
	}
	if len(acquired) != 1 || acquired[0] != "L" {
		t.Fatalf("OnAcquire calls = %v", acquired)
	}
	// A release from a non-holder is ignored.
	h(&core.Event{Type: core.UCast, Msg: msg("\x02L"), Source: c})
	if holder, _ := lm.Holder("L"); holder != a {
		t.Fatal("non-holder release changed the holder")
	}
}

func TestLockManagerFailover(t *testing.T) {
	a, b := id("a", 1), id("b", 2)
	lm := tools.NewLockManager()
	var acquired []string
	lm.OnAcquire = func(name string) { acquired = append(acquired, name) }
	ep := core.NewEndpoint(a, nullTransport{})
	g, err := ep.Join("g", core.StackSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lm.Bind(g)
	h := lm.Handler()
	h(&core.Event{Type: core.UCast, Msg: msg("\x01L"), Source: b})
	h(&core.Event{Type: core.UCast, Msg: msg("\x01L"), Source: a})
	// b crashes: the view change hands the lock to a.
	h(&core.Event{Type: core.UView, Detail: &core.Detail{View: view(2, a)}})
	if !lm.HeldByMe("L") {
		t.Fatal("lock did not fail over")
	}
	if len(acquired) != 1 {
		t.Fatalf("OnAcquire calls = %v", acquired)
	}
	// The dead waiter is gone entirely: release empties the queue.
	h(&core.Event{Type: core.UCast, Msg: msg("\x02L"), Source: a})
	if _, ok := lm.Holder("L"); ok {
		t.Fatal("queue not empty after failover release")
	}
}

func TestPrimaryBackupRoles(t *testing.T) {
	a, b := id("a", 1), id("b", 2)
	var updates []string
	pb := tools.NewPrimaryBackup(func(u []byte) { updates = append(updates, string(u)) })
	ep := core.NewEndpoint(a, nullTransport{})
	g, err := ep.Join("g", core.StackSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pb.Bind(g)
	h := pb.Handler()
	if pb.IsPrimary() {
		t.Fatal("primary before any view")
	}
	h(&core.Event{Type: core.UView, Detail: &core.Detail{View: view(1, a, b)}})
	if !pb.IsPrimary() {
		t.Fatal("rank 0 not primary")
	}
	// Updates apply in order.
	h(&core.Event{Type: core.UCast, Msg: msg("\x02u1"), Source: a})
	h(&core.Event{Type: core.UCast, Msg: msg("\x02u2"), Source: a})
	if len(updates) != 2 || updates[0] != "u1" {
		t.Fatalf("updates = %v", updates)
	}
	if pb.Applied() != 2 {
		t.Errorf("Applied = %d", pb.Applied())
	}
	// Losing rank 0 demotes us.
	h(&core.Event{Type: core.UView, Detail: &core.Detail{View: view(2, id("older", 0), a)}})
	if pb.IsPrimary() {
		t.Fatal("still primary after losing rank 0")
	}
}

// nullTransport satisfies core.Transport with no-ops.
type nullTransport struct{}

func (nullTransport) Send(core.EndpointID, core.GroupAddr, []core.EndpointID, []byte) {}
func (nullTransport) SetTimer(time.Duration, func()) func()                           { return func() {} }
func (nullTransport) Now() time.Duration                                              { return 0 }

func msg(s string) *message.Message { return message.New([]byte(s)) }
