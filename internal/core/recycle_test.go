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
// body begins with "keep", holding it (Context.Hold), until release;
// it passes everything else up as it arrives. seen records the event
// of every arrival, to compare records.
type keepLayer struct {
	core.Base
	parked, seen []*core.Event
}

func (l *keepLayer) Name() string { return "KEEP" }

func (l *keepLayer) Up(ev *core.Event) {
	l.seen = append(l.seen, ev) // compared by address, never read
	if ev.Type == core.UCast && string(ev.Msg.Body()[:4]) == "keep" {
		l.Ctx.Hold(ev)
		l.parked = append(l.parked, ev)
		return
	}
	l.Ctx.Up(ev)
}

func (l *keepLayer) release() {
	for _, ev := range l.parked {
		l.Ctx.Up(ev)
	}
	l.parked = nil
}

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

// A packet's record goes back to its endpoint once its upcall returns:
// the next arrival runs in the very record, one after another.
func TestConsumedPacketRecordIsReused(t *testing.T) {
	r := newRecycleRig(t, "drop-0", "drop-1", "drop-2")
	for _, w := range r.images {
		r.ep.Deliver("g", w)
	}
	if len(r.keep.seen) != 3 || r.keep.seen[1] != r.keep.seen[0] || r.keep.seen[2] != r.keep.seen[0] {
		t.Errorf("three consumed packets ran in records %p, want one record", r.keep.seen)
	}
	want := []string{r.entry(0, "drop-0"), r.entry(1, "drop-1"), r.entry(2, "drop-2")}
	if !slices.Equal(r.log, want) {
		t.Errorf("delivered %q, want %q", r.log, want)
	}
}

// A held packet keeps its record: its type, source, headers and body
// read as they arrived while later arrivals run, which take other
// records, and it is delivered intact when its layer releases it.
func TestHeldPacketSurvivesLaterArrivals(t *testing.T) {
	r := newRecycleRig(t, "keep-0", "drop-1", "drop-2", "keep-3", "drop-4")
	for _, w := range r.images {
		r.ep.Deliver("g", w)
	}
	seen := r.keep.seen
	if len(seen) != 5 || seen[1] == seen[0] || seen[2] != seen[1] || seen[3] != seen[1] || seen[4] == seen[1] || seen[4] == seen[3] {
		t.Errorf("records %p: want the held 0 and 3 reused by nothing, 1 and 2 and 3 in one record", seen)
	}
	r.ep.Do(r.keep.release)
	want := []string{r.entry(1, "drop-1"), r.entry(2, "drop-2"), r.entry(4, "drop-4"),
		r.entry(0, "keep-0"), r.entry(3, "keep-3")}
	if !slices.Equal(r.log, want) {
		t.Errorf("delivered %q, want %q", r.log, want)
	}
}

// holdLayer holds every arrival and parks it.
type holdLayer struct {
	core.Base
	parked []*core.Event
}

func (l *holdLayer) Name() string { return "HOLD" }

func (l *holdLayer) Up(ev *core.Event) {
	l.Ctx.Hold(ev)
	l.parked = append(l.parked, ev)
}

// A packet a layer cannot parse (message.ShortRead) is dropped and its
// record goes back once: the two held arrivals after it take two
// records, and each keeps what it carried.
func TestMalformedPacketRecycledOnce(t *testing.T) {
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
	for _, body := range []string{"p1", "p2"} {
		m := message.New([]byte(body))
		m.PushUint(1)
		ep.Deliver("g", m.Marshal())
	}
	if n := ep.Malformed(); n != 1 || len(hold.parked) != 2 {
		t.Fatalf("Malformed = %d, held %d; want 1 and 2", n, len(hold.parked))
	}
	if hold.parked[0] == hold.parked[1] {
		t.Error("two held packets share one record: the malformed one's went back twice")
	}
	for i, ev := range hold.parked {
		if want := fmt.Sprintf("p%d", i+1); ev.Type != core.UPacket || string(ev.Msg.Body()) != want {
			t.Errorf("held packet %d reads %v %q, want PACKET %q", i, ev.Type, ev.Msg.Body(), want)
		}
	}
}

// A lent record that a layer above holds is the held message's for
// good: the arrivals and lent upcalls after it run in other records,
// and it reads as it arrived when its layer releases it.
func TestHeldLentRecordIsNotReused(t *testing.T) {
	r := newRecycleRig(t, "keep-lend-0", "drop-1", "lend-2", "drop-3", "lend-4", "drop-5")
	for _, w := range r.images {
		r.ep.Deliver("g", w)
	}
	seen := r.keep.seen // lent 0, drop 1, lent 2, drop 3, lent 4, drop 5
	if len(seen) != 6 || len(r.keep.parked) != 1 || r.keep.parked[0] != seen[0] {
		t.Fatalf("KEEP saw %d upcalls and parked %d, want 6 and the first", len(seen), len(r.keep.parked))
	}
	for i, ev := range seen[1:] {
		if ev == seen[0] {
			t.Errorf("upcall %d ran in the held lent record", i+1)
		}
	}
	r.ep.Do(r.keep.release)
	want := []string{r.entry(1, "drop-1"), r.entry(2, "lend-2"), r.entry(3, "drop-3"),
		r.entry(4, "lend-4"), r.entry(5, "drop-5"), r.entry(0, "keep-lend-0")}
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
// running packet again: a Hold of it after the nested upcall keeps its
// record from the arrivals after it.
func TestHoldAfterLentUpcallMarksTheArrival(t *testing.T) {
	r := newRecycleRig(t, "lend-0", "keep-1", "drop-2", "drop-3")
	for _, w := range r.images {
		r.ep.Deliver("g", w)
	}
	seen := r.keep.seen // lent 0, keep 1, drop 2, drop 3
	if len(seen) != 4 || seen[2] == seen[1] || seen[3] == seen[1] {
		t.Errorf("records %p: want the held arrival's reused by nothing", seen)
	}
	r.ep.Do(r.keep.release)
	want := []string{r.entry(0, "lend-0"), r.entry(2, "drop-2"), r.entry(3, "drop-3"), r.entry(1, "keep-1")}
	if !slices.Equal(r.log, want) {
		t.Errorf("delivered %q, want %q", r.log, want)
	}
}
