package core_test

import (
	"fmt"
	"slices"
	"testing"

	"horus/internal/core"
	"horus/internal/layers/com"
)

// queueCtx returns the context of a pass-through layer in a joined
// stack, for parking events built by the test.
func queueCtx(t *testing.T) (*core.Endpoint, *core.Context) {
	t.Helper()
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, nullTransport{})
	l := &passLayer{}
	if _, err := ep.Join("g", core.StackSpec{func() core.Layer { return l }}, nil); err != nil {
		t.Fatal(err)
	}
	return ep, l.Ctx
}

// numbered returns n built events whose Priority is their index.
func numbered(n int) []*core.Event {
	evs := make([]*core.Event, n)
	for i := range evs {
		evs[i] = &core.Event{Type: core.DCast, Priority: int32(i)}
	}
	return evs
}

// priorities lists what q holds, oldest first.
func priorities(q *core.Queue) []int32 {
	var out []int32
	for i := range q.Len() {
		out = append(out, q.At(i).Priority)
	}
	return out
}

// Events come out in the order they were put, whether taken one at a
// time, from the middle, or drained; storage the taken ones left in
// front is reused by later puts.
func TestQueueIsFIFO(t *testing.T) {
	_, c := queueCtx(t)
	evs := numbered(8)
	var q core.Queue
	for _, ev := range evs[:5] {
		q.Put(c, ev)
	}
	if got := q.Remove(0); got != evs[0] || q.Len() != 4 {
		t.Fatalf("Remove(0) = %v with %d left, want event 0 with 4", got, q.Len())
	}
	if got := q.Remove(2); got != evs[3] {
		t.Fatalf("Remove(2) = priority %d, want 3", got.Priority)
	}
	for _, ev := range evs[5:] {
		q.Put(c, ev)
	}
	if got, want := priorities(&q), []int32{1, 2, 4, 5, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("queue holds %v, want %v", got, want)
	}
	var drained []int32
	q.Drain(func(ev *core.Event) { drained = append(drained, ev.Priority) })
	if want := []int32{1, 2, 4, 5, 6, 7}; !slices.Equal(drained, want) || q.Len() != 0 {
		t.Errorf("Drain passed %v and left %d, want %v and none", drained, q.Len(), want)
	}
}

// A Drain passes a snapshot: what the callee parks again stays parked,
// in the order it was put, and a Drain nested in the callee passes only
// that — as MBRSHIP's replay of future-view data re-parks what is still
// ahead, and its release of deferred casts hands each to castDown, which
// parks it again while transmissions are blocked.
func TestQueueDrainKeepsReparkedInOrder(t *testing.T) {
	_, c := queueCtx(t)
	evs := numbered(6)
	var q core.Queue
	for _, ev := range evs {
		q.Put(c, ev)
	}
	var passed, nested []int32
	q.Drain(func(ev *core.Event) {
		passed = append(passed, ev.Priority)
		if ev.Priority%2 == 1 {
			q.Put(c, ev)
		}
		if ev.Priority == 3 {
			q.Drain(func(ev *core.Event) {
				nested = append(nested, ev.Priority)
				q.Put(c, ev)
			})
		}
	})
	if want := []int32{0, 1, 2, 3, 4, 5}; !slices.Equal(passed, want) {
		t.Errorf("Drain passed %v, want %v", passed, want)
	}
	if want := []int32{1, 3}; !slices.Equal(nested, want) {
		t.Errorf("nested Drain passed %v, want the re-parked %v", nested, want)
	}
	if got, want := priorities(&q), []int32{1, 3, 5}; !slices.Equal(got, want) {
		t.Errorf("queue holds %v after the drain, want the re-parked %v", got, want)
	}
}

// Parking and draining reuse the queue's storage: once warm, a cycle of
// puts and a drain, or of puts and takes, allocates nothing.
func TestQueuePutDrainAllocs(t *testing.T) {
	ep, c := queueCtx(t)
	evs := numbered(16)
	var q core.Queue
	cycle := func() {
		for _, ev := range evs {
			q.Put(c, ev)
		}
		q.Drain(func(*core.Event) {})
	}
	takes := func() {
		for _, ev := range evs {
			q.Put(c, ev)
			q.Put(c, q.Remove(0))
		}
		for q.Len() > 0 {
			q.Remove(0)
		}
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{{"put and drain", cycle}, {"put and take", takes}} {
		var allocs float64
		ep.Do(func() { allocs = testing.AllocsPerRun(100, tc.fn) })
		if allocs != 0 {
			t.Errorf("%s: %v allocations, want 0", tc.name, allocs)
		}
	}
}

// orderLayer parks every cast in an OrderedQueue under the reverse
// of its arrival number, and releases them, lowest first, on release.
type orderLayer struct {
	core.Base
	n      uint64
	parked core.OrderedQueue
}

func (l *orderLayer) Name() string { return "ORDER" }

func (l *orderLayer) Up(ev *core.Event) {
	if ev.Type != core.UCast {
		l.Ctx.Up(ev)
		return
	}
	l.n++
	l.parked.Put(l.Ctx, 100-l.n, ev)
}

func (l *orderLayer) release() {
	for seq, ok := l.parked.Lowest(); ok; seq, ok = l.parked.Lowest() {
		ev, _ := l.parked.Pop(seq)
		l.Ctx.Up(ev)
	}
}

// OrderedQueue.Put holds as Queue.Put does: arrivals parked by number
// keep their records through many later arrivals and are delivered
// intact, in number order.
func TestOrderedQueuePutHolds(t *testing.T) {
	a := core.EndpointID{Site: "a", Birth: 1}
	b := core.EndpointID{Site: "b", Birth: 2}
	view := core.NewView(core.ViewID{Seq: 1, Coord: a}, "g", []core.EndpointID{a, b})
	n := 3 * reuseCycle(t)
	images := castImages(t, a, view, core.StackSpec{com.New}, n, func(i int) string { return fmt.Sprint(i) })
	ep := core.NewEndpoint(b, &fakeTransport{})
	order := &orderLayer{}
	var got []string
	g, err := ep.Join("g", core.StackSpec{func() core.Layer { return order }, com.New}, func(ev *core.Event) {
		if ev.Type == core.UCast {
			got = append(got, string(ev.Msg.Body()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.InstallView(view)
	for _, w := range images {
		ep.Deliver("g", w)
	}
	ep.Do(order.release)
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, body := range got {
		if want := fmt.Sprint(n - 1 - i); body != want {
			t.Errorf("delivery %d reads %q, want %q", i, body, want)
		}
	}
}
