package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/nak"
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

// stashLayer builds a send in one run and keeps it in a field rather
// than a Queue, to send it down in a later run.
type stashLayer struct {
	core.Base
	kept *core.Event
}

func (l *stashLayer) Name() string { return "STASH" }

func (l *stashLayer) build() {
	l.kept = l.Ctx.NewSendTo(core.EndpointID{Site: "b", Birth: 2}, 0)
	l.kept.Msg.PushUint8(1)
}

func (l *stashLayer) send() { l.Ctx.Down(l.kept) }

// A send a layer builds is lent for the run that made it: kept past
// that run other than through a Queue, it has gone back and reads as
// spent, and passing it on panics at once rather than sending a later
// send's message.
func TestSendKeptPastItsRunPanics(t *testing.T) {
	tr := &fakeTransport{}
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, tr)
	l := &stashLayer{}
	if _, err := ep.Join("g", core.StackSpec{func() core.Layer { return l }, com.New}, nil); err != nil {
		t.Fatal(err)
	}
	ep.Do(l.build)
	var got any
	func() {
		defer func() { got = recover() }()
		ep.Do(l.send)
	}()
	if msg, _ := got.(string); !strings.Contains(msg, "spent record") || !strings.Contains(msg, "NewSendTo") {
		t.Fatalf("a send kept past its run crossed a layer with %v, want the spent-record panic", got)
	}
	if len(tr.sent) != 0 {
		t.Fatalf("the kept send reached the transport: %+v", tr.sent)
	}
}

// makeLayer builds sends at the test's request, each tagged with its
// number: to one member (NewSendTo) with its text in the headers, or
// to a list (NewDowncall) with its text as the body.
type makeLayer struct {
	core.Base
	next uint64
}

func (l *makeLayer) Name() string { return "MAKE" }

func (l *makeLayer) send(text string, dests ...core.EndpointID) {
	var ev *core.Event
	if len(dests) == 1 {
		ev = l.Ctx.NewSendTo(dests[0], 0)
		ev.Msg.PushString(text)
	} else {
		ev = l.Ctx.NewDowncall(core.DSend, dests, 0)
		ev.Msg.SetBody([]byte(text))
	}
	ev.Msg.PushUint(l.next)
	l.next++
	l.Ctx.Down(ev)
}

// sendParkLayer parks every send while on (Queue.Put), and passes
// everything else down.
type sendParkLayer struct {
	core.Base
	on     bool
	parked core.Queue
}

func (l *sendParkLayer) Name() string { return "SENDPARK" }

func (l *sendParkLayer) Down(ev *core.Event) {
	if l.on && ev.Type == core.DSend {
		l.parked.Put(l.Ctx, ev)
		return
	}
	l.Ctx.Down(ev)
}

func (l *sendParkLayer) release() { l.parked.Drain(l.Ctx.Down) }

// parkedSend makes a send to dests in a run of its own while park parks
// what comes down.
func parkedSend(ep *core.Endpoint, mk *makeLayer, park *sendParkLayer, text string, dests ...core.EndpointID) {
	ep.Do(func() {
		park.on = true
		mk.send(text, dests...)
		park.on = false
	})
}

// A send a lower layer parks survives the run that made it: the sends
// after it, which go back when their runs end and are handed out again,
// take other records, and when a later run releases it, it reaches the
// transport with its destinations, headers and body as it was built —
// to one member with its text in headers carved from the endpoint's
// slab, and to a list with its text as the body.
func TestParkedSendSurvivesItsRun(t *testing.T) {
	a, b, c := core.EndpointID{Site: "a", Birth: 1}, core.EndpointID{Site: "b", Birth: 2}, core.EndpointID{Site: "c", Birth: 3}
	view := core.NewView(core.ViewID{Seq: 1, Coord: a}, "g", []core.EndpointID{a, b, c})
	tr := &fakeTransport{}
	ep := core.NewEndpoint(a, tr)
	mk, park := &makeLayer{}, &sendParkLayer{}
	if _, err := ep.Join("g", core.StackSpec{
		func() core.Layer { return mk },
		func() core.Layer { return park },
		com.New,
	}, nil); err != nil {
		t.Fatal(err)
	}
	list := []core.EndpointID{b, c}
	parkedSend(ep, mk, park, "keep-0", b)
	parkedSend(ep, mk, park, "keep-1", list...)
	const later = 200 // many times the endpoint's free list
	for i := range later {
		ep.Do(func() { mk.send(fmt.Sprintf("drop-%d", i+2), c) })
	}
	if park.parked.Len() != 2 || len(tr.sent) != later {
		t.Fatalf("parked %d sends and sent %d, want 2 and %d", park.parked.Len(), len(tr.sent), later)
	}
	ep.Do(park.release)

	rx := core.NewEndpoint(b, &fakeTransport{})
	var log []string
	g, err := rx.Join("g", core.StackSpec{com.New}, func(ev *core.Event) {
		tag := ev.Msg.PopUint()
		text := string(ev.Msg.Body())
		if ev.Msg.HeaderLen() > 0 {
			text = ev.Msg.PopString()
		}
		log = append(log, fmt.Sprintf("%s #%d %q from %s", ev.Type, tag, text, ev.Source))
	})
	if err != nil {
		t.Fatal(err)
	}
	g.InstallView(view)
	var want []string
	entry := func(tag int, text string) string { return fmt.Sprintf("SEND #%d %q from %s", tag, text, a) }
	for i := range later {
		want = append(want, entry(i+2, fmt.Sprintf("drop-%d", i+2)))
	}
	want = append(want, entry(0, "keep-0"), entry(1, "keep-1"))
	for i, s := range tr.sent {
		to := []core.EndpointID{c}
		switch i {
		case later:
			to = []core.EndpointID{b}
		case later + 1:
			to = list
		}
		if !slices.Equal(s.dests, to) {
			t.Errorf("transmission %d went to %v, want %v", i, s.dests, to)
		}
		rx.Deliver("g", s.wire)
	}
	if !slices.Equal(log, want) {
		t.Errorf("received %q, want %q", log, want)
	}
}

// A piece of a send that a lower layer parks keeps the send's
// destination, which lies in the send's record: parking the piece
// holds that record too.
func TestParkedPieceKeepsItsSendsDestination(t *testing.T) {
	a, b, c := core.EndpointID{Site: "a", Birth: 1}, core.EndpointID{Site: "b", Birth: 2}, core.EndpointID{Site: "c", Birth: 3}
	tr := &fakeTransport{}
	ep := core.NewEndpoint(a, tr)
	mk, park := &makeLayer{}, &sendParkLayer{}
	if _, err := ep.Join("g", core.StackSpec{
		func() core.Layer { return mk },
		func() core.Layer { return &splitLayer{size: 8} },
		func() core.Layer { return park },
		com.New,
	}, nil); err != nil {
		t.Fatal(err)
	}
	parkedSend(ep, mk, park, "a send of several pieces", b)
	pieces := park.parked.Len()
	const later = 200 // many times the endpoint's free list
	for range later {
		ep.Do(func() { mk.send("drop", c) })
	}
	sent := len(tr.sent)
	ep.Do(park.release)
	if pieces < 2 || len(tr.sent) != sent+pieces {
		t.Fatalf("%d pieces parked and %d released, want several each", pieces, len(tr.sent)-sent)
	}
	for i, s := range tr.sent[sent:] {
		if !slices.Equal(s.dests, []core.EndpointID{b}) {
			t.Errorf("piece %d went to %v, want %v", i, s.dests, b)
		}
	}
}

// castStashLayer keeps the last cast it passes down in a field rather
// than a Queue, to send it down again in a later run.
type castStashLayer struct {
	core.Base
	kept *core.Event
}

func (l *castStashLayer) Name() string { return "CASTSTASH" }

func (l *castStashLayer) Down(ev *core.Event) {
	if ev.Type == core.DCast {
		l.kept = ev
	}
	l.Ctx.Down(ev)
}

func (l *castStashLayer) resend() { l.Ctx.Down(l.kept) }

// An application's cast whose message reached the transport is lent
// for its run: kept past that run other than through a Queue, it has
// gone back and reads as spent, and passing it on panics at its next
// crossing rather than sending a later cast's message.
func TestDowncallKeptPastItsRunPanics(t *testing.T) {
	tr := &fakeTransport{}
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, tr)
	l := &castStashLayer{}
	g, err := ep.Join("g", core.StackSpec{func() core.Layer { return l }, func() core.Layer { return &passLayer{} }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Cast(message.New([]byte("once")))
	var got any
	func() {
		defer func() { got = recover() }()
		ep.Do(l.resend)
	}()
	if msg, _ := got.(string); !strings.Contains(msg, "spent record") || !strings.Contains(msg, "cast") {
		t.Fatalf("a cast kept past its run crossed a layer with %v, want the spent-record panic", got)
	}
	if len(tr.sent) != 1 {
		t.Fatalf("%d transmissions, want the cast's one", len(tr.sent))
	}
}

// joinTapLayer holds an application's casts until its stack reports a
// view of want members, as an application that joins before it talks
// would: it absorbs each cast into a slice of its own, not a Queue, and
// sends them down from Endpoint.Do once the upcall of the full view has
// run.
type joinTapLayer struct {
	core.Base
	ep     *core.Endpoint
	want   int
	joined bool
	held   []*core.Event
}

func (l *joinTapLayer) Name() string { return "JOINTAP" }

func (l *joinTapLayer) Down(ev *core.Event) {
	if ev.Type == core.DCast && !l.joined {
		l.held = append(l.held, ev)
		return
	}
	l.Ctx.Down(ev)
}

func (l *joinTapLayer) Up(ev *core.Event) {
	if ev.Type == core.UView && !l.joined && ev.View.Size() == l.want {
		l.joined = true
		l.ep.Do(func() {
			for _, h := range l.held {
				l.Ctx.Down(h)
			}
			l.held = nil
		})
	}
	l.Ctx.Up(ev)
}

// viewUpLayer reports every view installed through it, as a membership
// layer reports the view it installs.
type viewUpLayer struct{ core.Base }

func (l *viewUpLayer) Name() string { return "VIEWUP" }

func (l *viewUpLayer) Down(ev *core.Event) {
	l.Ctx.Down(ev)
	if ev.Type == core.DView {
		l.Ctx.Up(&core.Event{Type: core.UView, Detail: &core.Detail{View: ev.View}})
	}
}

// A cast a layer absorbs was not sent in its run, so its record is not
// lent: a layer that keeps casts in a slice until a view forms, and
// sends them from a later run, sends every one intact, however many
// casts went through records the endpoint reused meanwhile. The casts
// come from one buffer the application overwrites as soon as Cast
// returns, with bodies the slab copies and bodies too large for it.
func TestAbsorbedCastsSurviveUntilReleased(t *testing.T) {
	a, b := core.EndpointID{Site: "a", Birth: 1}, core.EndpointID{Site: "b", Birth: 2}
	view := core.NewView(core.ViewID{Seq: 1, Coord: a}, "g", []core.EndpointID{a, b})
	ep := core.NewEndpoint(a, &fakeTransport{})
	tap := &joinTapLayer{ep: ep, want: 2}
	g, err := ep.Join("g", core.StackSpec{
		func() core.Layer { return tap },
		func() core.Layer { return &viewUpLayer{} },
		nak.New, com.New,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var images [][]byte
	ep.SetWireTap(func(_ []core.EndpointID, wire []byte) { images = append(images, wire) })
	const absorbed, later = 40, 200 // each more than the endpoint keeps
	var want []string
	buf := make([]byte, 200)
	cast := func(text string) {
		body := buf[:copy(buf, text)+len(want)%2*100] // every other body past what the slab copies
		want = append(want, string(body))
		g.Cast(message.New(body))
		clear(buf)
	}
	for i := range absorbed {
		cast(fmt.Sprintf("held-%d", i))
	}
	if len(images) != 0 || len(tap.held) != absorbed {
		t.Fatalf("%d transmissions and %d casts held before the view, want 0 and %d", len(images), len(tap.held), absorbed)
	}
	g.InstallView(view)
	for i := range later {
		cast(fmt.Sprintf("after-%d", i))
	}

	rx := core.NewEndpoint(b, &fakeTransport{})
	var got []string
	rg, err := rx.Join("g", core.StackSpec{nak.New, com.New}, func(ev *core.Event) {
		if ev.Type == core.UCast {
			got = append(got, string(ev.Msg.Body()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rg.InstallView(view)
	for _, w := range images {
		rx.Deliver("g", w)
	}
	if !slices.Equal(got, want) {
		t.Errorf("delivered %d casts, want %d in order as cast", len(got), len(want))
	}
}

// Cast copies the application's Message and keeps nothing of it: when
// Cast returns, the Message carries no header a layer pushed and still
// refers to the caller's buffer, so the caller may fill the buffer and
// cast the same Message again, and the transport is handed what each
// cast held when it was cast.
func TestCastCopiesTheCallersMessage(t *testing.T) {
	a, b := core.EndpointID{Site: "a", Birth: 1}, core.EndpointID{Site: "b", Birth: 2}
	tr := &fakeTransport{}
	ep := core.NewEndpoint(a, tr)
	g, err := ep.Join("g", core.StackSpec{nak.New, com.New}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.InstallView(core.NewView(core.ViewID{Seq: 1, Coord: a}, "g", []core.EndpointID{a, b}))
	buf := make([]byte, 64)
	msg := message.New(buf)
	for i := range 3 {
		copy(buf, fmt.Sprintf("cast-%d", i))
		g.Cast(msg)
		if msg.HeaderLen() != 0 || &msg.Body()[0] != &buf[0] {
			t.Fatalf("after Cast the caller's message carries %d header bytes, body %p for buffer %p",
				msg.HeaderLen(), msg.Body(), buf)
		}
	}
	for i, s := range tr.sent {
		m, err := message.Unmarshal(s.wire)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("cast-%d", i); !bytes.HasPrefix(m.Body(), []byte(want)) {
			t.Errorf("transmission %d carries %q, want %q", i, m.Body()[:6], want)
		}
	}
	if len(tr.sent) != 3 {
		t.Fatalf("%d transmissions, want 3", len(tr.sent))
	}
}
