package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/message"
)

// castImages returns the wire images of n casts from a over spec in
// view, as a fabric would carry them; cast i's body is body(i) when
// body is given, 64 zero bytes otherwise.
func castImages(t *testing.T, a core.EndpointID, view *core.View, spec core.StackSpec, n int, body ...func(int) string) [][]byte {
	t.Helper()
	tx := core.NewEndpoint(a, &fakeTransport{})
	g, err := tx.Join("g", spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.InstallView(view)
	var images [][]byte
	tx.SetWireTap(func(_ []core.EndpointID, wire []byte) {
		images = append(images, append([]byte(nil), wire...))
	})
	for i := 0; i < n; i++ {
		b := make([]byte, 64)
		if len(body) > 0 {
			b = []byte(body[0](i))
		}
		g.Cast(message.New(b))
	}
	if len(images) != n {
		t.Fatalf("captured %d images of %d casts", len(images), n)
	}
	return images
}

// tagLayer pushes the number of each cast it sends under it.
type tagLayer struct {
	core.Base
	next uint64
}

func (l *tagLayer) Name() string { return "TAG" }

func (l *tagLayer) Down(ev *core.Event) {
	if ev.Type == core.DCast {
		ev.Msg.PushUint(l.next)
		l.next++
	}
	l.Ctx.Down(ev)
}

// keepLayer stands where TAG's peer would and parks every cast whose
// body begins with "keep" (Queue.Put) until release; it passes
// everything else up as it arrives. seen records the event of every
// arrival, to compare records.
type keepLayer struct {
	core.Base
	parked core.Queue
	seen   []*core.Event
}

func (l *keepLayer) Name() string { return "KEEP" }

func (l *keepLayer) Up(ev *core.Event) {
	l.seen = append(l.seen, ev) // compared by address, never read
	if ev.Type == core.UCast && string(ev.Msg.Body()[:4]) == "keep" {
		l.parked.Put(l.Ctx, ev)
		return
	}
	l.Ctx.Up(ev)
}

func (l *keepLayer) release() { l.parked.Drain(l.Ctx.Up) }

// lendLayer parks the message of every cast whose body holds "lend" by
// value, as NAK parks what arrives beyond a gap, and lets the arrival's
// record go. Any other arrival first passes the parked messages up, in
// lent records (Context.UpParked), and then itself.
type lendLayer struct {
	core.Base
	parked []message.Message
}

func (l *lendLayer) Name() string { return "LEND" }

func (l *lendLayer) Up(ev *core.Event) {
	if ev.Type == core.UCast && bytes.Contains(ev.Msg.Body(), []byte("lend")) {
		l.parked = append(l.parked, *ev.Msg)
		return
	}
	for i := range l.parked {
		l.Ctx.UpParked(core.UCast, ev.Source, &l.parked[i])
	}
	clear(l.parked)
	l.parked = l.parked[:0]
	l.Ctx.Up(ev)
}

// recycleRig is a receiver of TAG:COM casts from a whose stack is
// KEEP:LEND:COM; log reads what reaches the handler, the tag TAG
// pushed, the body and the source.
type recycleRig struct {
	a      core.EndpointID
	ep     *core.Endpoint
	keep   *keepLayer
	images [][]byte
	log    []string
}

func newRecycleRig(t *testing.T, bodies ...string) *recycleRig {
	t.Helper()
	a := core.EndpointID{Site: "a", Birth: 1}
	b := core.EndpointID{Site: "b", Birth: 2}
	view := core.NewView(core.ViewID{Seq: 1, Coord: a}, "g", []core.EndpointID{a, b})
	r := &recycleRig{a: a, keep: &keepLayer{}}
	r.images = castImages(t, a, view, core.StackSpec{func() core.Layer { return &tagLayer{} }, com.New},
		len(bodies), func(i int) string { return bodies[i] })
	r.ep = core.NewEndpoint(b, &fakeTransport{})
	g, err := r.ep.Join("g", core.StackSpec{func() core.Layer { return r.keep }, func() core.Layer { return &lendLayer{} }, com.New}, func(ev *core.Event) {
		if ev.Type == core.UCast {
			r.log = append(r.log, fmt.Sprintf("%s #%d %q from %s", ev.Type, ev.Msg.PopUint(), ev.Msg.Body(), ev.Source))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.InstallView(view)
	return r
}

func (r *recycleRig) entry(tag int, body string) string {
	return fmt.Sprintf("CAST #%d %q from %s", tag, body, r.a)
}

// deliver passes every image to the receiver, in order.
func (r *recycleRig) deliver() {
	for _, w := range r.images {
		r.ep.Deliver("g", w)
	}
}

// drops returns n bodies "drop-i" for i from from on: casts KEEP and
// LEND pass straight up, whose records go back when they return.
func drops(from, n int) []string {
	var bodies []string
	for i := from; i < from+n; i++ {
		bodies = append(bodies, fmt.Sprintf("drop-%d", i))
	}
	return bodies
}

// reuseCycle returns how many arrivals in a row run in distinct records
// once an endpoint is warm: a spent record is handed out again only
// after the records of that many less one went back behind it.
func reuseCycle(t *testing.T) int {
	t.Helper()
	r := newRecycleRig(t, drops(0, 100)...)
	r.deliver()
	if i := slices.Index(r.keep.seen[1:], r.keep.seen[0]); i >= 0 {
		return i + 1
	}
	t.Fatal("no record reused in 100 arrivals")
	return 0
}

// A packet's record goes back to its endpoint once its upcall returns,
// and is handed out again only after later records went back behind
// it: the first cycle arrivals take new records, and every arrival
// after them runs in the record of the arrival a cycle before. No
// record is made after warm-up.
func TestConsumedPacketRecordIsReused(t *testing.T) {
	cycle := reuseCycle(t)
	if cycle < 2 {
		t.Fatalf("a spent record is handed out again at once (cycle %d)", cycle)
	}
	bodies := drops(0, 3*cycle)
	r := newRecycleRig(t, bodies...)
	r.deliver()
	seen := r.keep.seen
	if len(seen) != len(bodies) {
		t.Fatalf("KEEP saw %d arrivals, want %d", len(seen), len(bodies))
	}
	for i, ev := range seen {
		if i >= cycle && ev != seen[i-cycle] {
			t.Errorf("arrival %d ran in a record other than arrival %d's", i, i-cycle)
		}
		if i < cycle && slices.Contains(seen[:i], ev) {
			t.Errorf("arrival %d reused a record within a cycle", i)
		}
	}
	var want []string
	for i, body := range bodies {
		want = append(want, r.entry(i, body))
	}
	if !slices.Equal(r.log, want) {
		t.Errorf("delivered %q, want %q", r.log, want)
	}
}

// A parked packet keeps its record: its type, source, headers and body
// read as they arrived while later arrivals run, which take other
// records — also once those are reused — and it is delivered intact
// when its layer releases it.
func TestHeldPacketSurvivesLaterArrivals(t *testing.T) {
	cycle := reuseCycle(t)
	bodies := append(append([]string{"keep-0"}, drops(1, 2*cycle)...), "keep-x")
	bodies = append(bodies, drops(len(bodies), 2*cycle)...)
	r := newRecycleRig(t, bodies...)
	r.deliver()
	seen := r.keep.seen
	held := []int{0, 2*cycle + 1}
	for _, h := range held {
		for i := h + 1; i < len(seen); i++ {
			if seen[i] == seen[h] {
				t.Errorf("arrival %d ran in the record of parked arrival %d", i, h)
			}
		}
	}
	if last := seen[len(seen)-1]; last != seen[len(seen)-1-cycle] {
		t.Error("the drops after warm-up were not reused")
	}
	r.ep.Do(r.keep.release)
	var want []string
	for i, body := range bodies {
		if !slices.Contains(held, i) {
			want = append(want, r.entry(i, body))
		}
	}
	for _, h := range held {
		want = append(want, r.entry(h, bodies[h]))
	}
	if !slices.Equal(r.log, want) {
		t.Errorf("delivered %q, want %q", r.log, want)
	}
}

// holdLayer parks every arrival whose body begins with "p" and drops
// the rest; seen records the event of every arrival, to compare
// records.
type holdLayer struct {
	core.Base
	parked core.Queue
	seen   []*core.Event
}

func (l *holdLayer) Name() string { return "HOLD" }

func (l *holdLayer) Up(ev *core.Event) {
	l.seen = append(l.seen, ev) // compared by address, never read
	if ev.Msg.Body()[0] == 'p' {
		l.parked.Put(l.Ctx, ev)
	}
}

// distinct reports whether no two of evs are one record.
func distinct(evs []*core.Event) bool {
	set := make(map[*core.Event]bool, len(evs))
	for _, ev := range evs {
		set[ev] = true
	}
	return len(set) == len(evs)
}

// A packet a layer cannot parse (message.ShortRead) is dropped and its
// record goes back once: the dropped arrivals after it run in distinct
// records within every cycle, as they would had it gone back twice and
// come round a cycle early, and the two parked arrivals after them take
// two records, each keeping what it carried.
func TestMalformedPacketRecycledOnce(t *testing.T) {
	cycle := reuseCycle(t)
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, &fakeTransport{})
	hold := &holdLayer{}
	if _, err := ep.Join("g", core.StackSpec{
		func() core.Layer { return hold },
		func() core.Layer { return &popLayer{} },
		func() core.Layer { return &passLayer{} },
	}, nil); err != nil {
		t.Fatal(err)
	}
	truncated := message.New([]byte("p"))
	truncated.Push([]byte{0x80, 0x80})
	ep.Deliver("g", truncated.Marshal())
	bodies := append(drops(0, 3*cycle), "p1", "p2")
	for _, body := range bodies {
		m := message.New([]byte(body))
		m.PushUint(1)
		ep.Deliver("g", m.Marshal())
	}
	if n := ep.Malformed(); n != 1 || len(hold.seen) != len(bodies) || hold.parked.Len() != 2 {
		t.Fatalf("Malformed = %d, seen %d, parked %d; want 1, %d and 2", n, len(hold.seen), hold.parked.Len(), len(bodies))
	}
	for i := cycle; i <= len(hold.seen); i++ {
		if !distinct(hold.seen[i-cycle : i]) {
			t.Errorf("arrivals %d to %d share a record", i-cycle, i-1)
		}
	}
	for i := range 2 {
		if ev, want := hold.parked.At(i), fmt.Sprintf("p%d", i+1); ev.Type != core.UPacket || string(ev.Msg.Body()) != want {
			t.Errorf("parked packet %d reads %v %q, want PACKET %q", i, ev.Type, ev.Msg.Body(), want)
		}
	}
}

// A lent record that a layer above parks is the parked message's for
// good: the arrivals and lent upcalls after it run in other records,
// also once those are reused, and it reads as it arrived when its layer
// releases it.
func TestHeldLentRecordIsNotReused(t *testing.T) {
	cycle := reuseCycle(t)
	bodies := []string{"keep-lend-0", "drop-1", "lend-2", "drop-3", "lend-4", "drop-5"}
	bodies = append(bodies, drops(len(bodies), 2*cycle)...)
	r := newRecycleRig(t, bodies...)
	r.deliver()
	seen := r.keep.seen // lent 0, drop 1, lent 2, drop 3, lent 4, drop 5, drops
	if len(seen) != len(bodies) || r.keep.parked.Len() != 1 || r.keep.parked.At(0) != seen[0] {
		t.Fatalf("KEEP saw %d upcalls and parked %d, want %d and the first", len(seen), r.keep.parked.Len(), len(bodies))
	}
	for i, ev := range seen[1:] {
		if ev == seen[0] {
			t.Errorf("upcall %d ran in the parked lent record", i+1)
		}
	}
	r.ep.Do(r.keep.release)
	var want []string
	for i, body := range bodies[1:] {
		want = append(want, r.entry(i+1, body))
	}
	want = append(want, r.entry(0, "keep-lend-0"))
	if !slices.Equal(r.log, want) {
		t.Errorf("delivered %q, want %q", r.log, want)
	}
}

// An unheld lent record goes back when its upcall returns: a parked
// cast and the arrival that releases it cost nothing once the free
// list holds a record for each.
func TestLentRecordReused(t *testing.T) {
	const pairs = 100
	a := core.EndpointID{Site: "a", Birth: 1}
	b := core.EndpointID{Site: "b", Birth: 2}
	view := core.NewView(core.ViewID{Seq: 1, Coord: a}, "g", []core.EndpointID{a, b})
	images := castImages(t, a, view, core.StackSpec{com.New}, 2*(pairs+1), func(i int) string {
		return [...]string{"lend", "drop"}[i%2]
	})
	ep := core.NewEndpoint(b, &fakeTransport{})
	delivered := 0
	g, err := ep.Join("g", core.StackSpec{func() core.Layer { return &lendLayer{} }, com.New}, func(ev *core.Event) {
		if ev.Type == core.UCast {
			delivered++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.InstallView(view)
	pair := func() {
		ep.Deliver("g", images[0])
		ep.Deliver("g", images[1])
		images = images[2:]
	}
	if allocs := testing.AllocsPerRun(pairs, pair); allocs != 0 {
		t.Errorf("a parked cast and the arrival that releases it: %v allocations, want 0", allocs)
	}
	if delivered != 2*(pairs+1) {
		t.Errorf("%d casts delivered, want %d", delivered, 2*(pairs+1))
	}
}

// Once a lent upcall returns, the arrival whose run made it is the
// running packet again: a Put of it after the nested upcall keeps its
// record from the arrivals after it.
func TestHoldAfterLentUpcallMarksTheArrival(t *testing.T) {
	cycle := reuseCycle(t)
	bodies := append([]string{"lend-0", "keep-1"}, drops(2, 2*cycle)...)
	r := newRecycleRig(t, bodies...)
	r.deliver()
	seen := r.keep.seen // lent 0, keep 1, drops
	for i := 2; i < len(seen); i++ {
		if seen[i] == seen[1] {
			t.Errorf("arrival %d ran in the parked arrival's record", i)
		}
	}
	r.ep.Do(r.keep.release)
	want := []string{r.entry(0, "lend-0")}
	for i, body := range bodies[2:] {
		want = append(want, r.entry(i+2, body))
	}
	want = append(want, r.entry(1, "keep-1"))
	if !slices.Equal(r.log, want) {
		t.Errorf("delivered %q, want %q", r.log, want)
	}
}
