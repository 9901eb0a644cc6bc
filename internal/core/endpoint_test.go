package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/nak"
	"horus/internal/message"
)

// fakeTransport is a minimal in-process transport for endpoint tests.
type fakeTransport struct {
	sent   []fakeSend
	timers []func()
}

type fakeSend struct {
	from  core.EndpointID
	group core.GroupAddr
	dests []core.EndpointID
	wire  []byte
}

func (f *fakeTransport) Send(from core.EndpointID, group core.GroupAddr, dests []core.EndpointID, wire []byte) {
	// wire passes to the transport for good (core.Transport): it is
	// kept as it is, and must still read what was sent. dests is the
	// transport's for the call only, so it is copied.
	f.sent = append(f.sent, fakeSend{from, group, slices.Clone(dests), wire})
}

func (f *fakeTransport) SetTimer(d time.Duration, fn func()) func() {
	f.timers = append(f.timers, fn)
	return func() {}
}

func (f *fakeTransport) Now() time.Duration { return 0 }

// nullTransport swallows everything and keeps no record: the transport
// of the allocation pins.
type nullTransport struct{}

func (nullTransport) Send(core.EndpointID, core.GroupAddr, []core.EndpointID, []byte) {}
func (nullTransport) SetTimer(d time.Duration, fn func()) func()                      { return func() {} }
func (nullTransport) Now() time.Duration                                              { return 0 }

// passLayer forwards everything; echoes message downcalls to the
// transport via Transmit like a trivial COM.
type passLayer struct {
	core.Base
	initErr error
}

func (p *passLayer) Name() string { return "PASS" }

func (p *passLayer) Init(c *core.Context) error {
	if p.initErr != nil {
		return p.initErr
	}
	return p.Base.Init(c)
}

func (p *passLayer) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		p.Ctx.Transmit(nil, ev.Msg)
	case core.DDump:
		ev.Dump = append(ev.Dump, "PASS: ok")
		p.Ctx.Down(ev)
	default:
		p.Ctx.Down(ev)
	}
}

// parkLayer holds every cast until the test releases it, as TOTAL holds
// casts for the token and ADAPT, FC and NNAK hold them for credit.
type parkLayer struct {
	core.Base
	parked core.Queue
}

func (p *parkLayer) Name() string { return "PARK" }

func (p *parkLayer) Down(ev *core.Event) {
	if ev.Type == core.DCast {
		p.parked.Put(p.Ctx, ev)
		return
	}
	p.Ctx.Down(ev)
}

// TestParkedCastKeepsItsBody: message.New lets the application reuse a
// cast's body once the downcall has run. A layer that parks the cast
// beyond that point still sends what was cast, for a body the downcall
// record took and for one too large for it.
func TestParkedCastKeepsItsBody(t *testing.T) {
	tr := &fakeTransport{}
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, tr)
	park := &parkLayer{}
	g, err := ep.Join("g", core.StackSpec{
		func() core.Layer { return park },
		func() core.Layer { return &passLayer{} },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for _, n := range []int{64, 1000} {
		buf := bytes.Repeat([]byte{'a'}, n)
		want = append(want, message.New(bytes.Clone(buf)).Marshal())
		g.Cast(message.New(buf))
		for i := range buf {
			buf[i] = 'z'
		}
	}
	ep.Do(func() {
		park.parked.Drain(park.Ctx.Down)
	})
	if len(tr.sent) != len(want) {
		t.Fatalf("%d transmissions, want %d", len(tr.sent), len(want))
	}
	for i, s := range tr.sent {
		if !bytes.Equal(s.wire, want[i]) {
			t.Errorf("parked cast of %d bytes sent the bytes written after Cast returned", len(want[i])-1)
		}
	}
}

// splitLayer cuts every cast and send into fragments of size bytes of
// its wire image (core.NewFragments) and sends them down as they are.
type splitLayer struct {
	core.Base
	size int
}

func (s *splitLayer) Name() string { return "SPLIT" }

func (s *splitLayer) Down(ev *core.Event) {
	if ev.Type != core.DCast && ev.Type != core.DSend {
		s.Ctx.Down(ev)
		return
	}
	frags := core.NewFragments(ev, s.size)
	for i := range frags {
		s.Ctx.Down(frags.At(i))
	}
}

// TestSplitCastAllocatesOnlyTheSplit: a cast a layer splits reaches the
// transport as its wire image cut at the fragment size, each piece
// under the header length of a fragment that carries no headers, and
// whatever the application writes into its buffer after Cast returns.
// It costs its downcall record and the split's two allocations, and
// nothing more: Cast copies the application's Message, the split
// spends the downcall's event, so nothing is left to freeze when the
// downcall ends, and every fragment is rendered where it lies. The
// record is not lent: its message never reached the transport, the
// fragments did (downcall).
func TestSplitCastAllocatesOnlyTheSplit(t *testing.T) {
	const size = 40
	join := func(tr core.Transport) *core.Group {
		ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, tr)
		g, err := ep.Join("g", core.StackSpec{
			func() core.Layer { return &splitLayer{size: size} },
			func() core.Layer { return &passLayer{} },
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	tr := &fakeTransport{}
	buf := bytes.Repeat([]byte{'a'}, 1000)
	image := message.New(bytes.Clone(buf)).Marshal()
	join(tr).Cast(message.New(buf))
	for i := range buf {
		buf[i] = 'z'
	}
	if n := (len(image) + size - 1) / size; len(tr.sent) != n {
		t.Fatalf("%d transmissions, want %d", len(tr.sent), n)
	}
	for i, s := range tr.sent {
		want := append([]byte{0}, image[i*size:min((i+1)*size, len(image))]...)
		if !bytes.Equal(s.wire, want) {
			t.Fatalf("fragment %d is %x, want %x", i, s.wire, want)
		}
	}
	g := join(nullTransport{})
	if n := testing.AllocsPerRun(100, func() { g.Cast(message.New(buf)) }); n != 3 {
		t.Errorf("a split cast: %v allocations, want 3", n)
	}
}

func TestJoinDuplicateGroupRejected(t *testing.T) {
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, &fakeTransport{})
	if _, err := ep.Join("g", core.StackSpec{func() core.Layer { return &passLayer{} }}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Join("g", core.StackSpec{func() core.Layer { return &passLayer{} }}, nil); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

func TestJoinInitErrorPropagates(t *testing.T) {
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, &fakeTransport{})
	boom := errors.New("boom")
	_, err := ep.Join("g", core.StackSpec{func() core.Layer { return &passLayer{initErr: boom} }}, nil)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestDestroyDeliversDestroyAndExit(t *testing.T) {
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, &fakeTransport{})
	var got []core.EventType
	_, err := ep.Join("g", core.StackSpec{func() core.Layer { return &passLayer{} }},
		func(ev *core.Event) { got = append(got, ev.Type) })
	if err != nil {
		t.Fatal(err)
	}
	ep.Destroy()
	if len(got) != 2 || got[0] != core.UDestroy || got[1] != core.UExit {
		t.Fatalf("events = %v, want [DESTROY EXIT]", got)
	}
	if ep.Group("g") != nil {
		t.Error("group still registered after destroy")
	}
	if _, err := ep.Join("h", core.StackSpec{func() core.Layer { return &passLayer{} }}, nil); err == nil {
		t.Error("join after destroy accepted")
	}
	ep.Destroy() // second destroy is a no-op
}

func TestCastReachesTransport(t *testing.T) {
	tr := &fakeTransport{}
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, tr)
	g, err := ep.Join("g", core.StackSpec{func() core.Layer { return &passLayer{} }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Cast(message.New([]byte("w")))
	if len(tr.sent) != 1 || tr.sent[0].group != "g" {
		t.Fatalf("transport saw %v", tr.sent)
	}
}

func TestDeliverUnknownGroupDropped(t *testing.T) {
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, &fakeTransport{})
	ep.Deliver("nope", message.New([]byte("x")).Marshal()) // must not panic
}

func TestDeliverMalformedWireCounted(t *testing.T) {
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, &fakeTransport{})
	if _, err := ep.Join("g", core.StackSpec{func() core.Layer { return &passLayer{} }}, nil); err != nil {
		t.Fatal(err)
	}
	ep.Deliver("g", []byte{0, 0}) // too short for the length prefix
}

func TestEmptyStackErrorsOnCast(t *testing.T) {
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, &fakeTransport{})
	var errs []string
	g, err := ep.Join("g", core.StackSpec{}, func(ev *core.Event) {
		if ev.Type == core.USystemError {
			errs = append(errs, ev.Reason)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Cast(message.New([]byte("x")))
	if len(errs) != 1 {
		t.Fatalf("SYSTEM_ERRORs = %v, want one (cast fell off the stack)", errs)
	}
}

func TestDumpAndFocus(t *testing.T) {
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, &fakeTransport{})
	g, err := ep.Join("g", core.StackSpec{func() core.Layer { return &passLayer{} }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := g.Dump(); d != "PASS: ok" {
		t.Errorf("dump = %q", d)
	}
	if g.Focus("PASS") == nil {
		t.Error("focus failed to find the layer")
	}
	if g.Focus("NOPE") != nil {
		t.Error("focus found a nonexistent layer")
	}
	if got := g.Stack().Names(); got != "PASS" {
		t.Errorf("stack names = %q", got)
	}
}

// recordLayer keeps every event that passes it, in each direction. It
// parks what it records, as an arrival's record, and a sent cast's, is
// reused otherwise.
type recordLayer struct {
	core.Base
	down core.Queue
	up   core.Queue
}

func (r *recordLayer) Name() string { return "RECORD" }

func (r *recordLayer) Down(ev *core.Event) {
	r.down.Put(r.Ctx, ev)
	r.Ctx.Down(ev)
}

func (r *recordLayer) Up(ev *core.Event) {
	r.up.Put(r.Ctx, ev)
	r.Ctx.Up(ev)
}

// Control events cross every layer that passes them on, in both
// directions: a PROBLEM from the bottom reaches the handler, and an
// acknowledgement that falls off the bottom is absorbed without a
// SYSTEM_ERROR, which only a message downcall earns there.
func TestControlEventsCrossPassThroughLayers(t *testing.T) {
	top, mid := &recordLayer{}, &recordLayer{}
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, nullTransport{})
	var handled []core.EventType
	g, err := ep.Join("g", core.StackSpec{
		func() core.Layer { return top },
		func() core.Layer { return mid },
	}, func(ev *core.Event) { handled = append(handled, ev.Type) })
	if err != nil {
		t.Fatal(err)
	}
	problem := &core.Event{Type: core.UProblem, Source: ep.ID()}
	ep.Do(func() { g.Stack().Up(problem) })
	g.Ack(core.MsgID{Origin: ep.ID(), Seq: 1})
	if want := []core.EventType{core.UProblem}; !slices.Equal(handled, want) {
		t.Errorf("handler saw %v, want %v", handled, want)
	}
	for _, l := range []*recordLayer{top, mid} {
		if l.up.Len() != 1 || l.up.At(0) != problem {
			t.Errorf("layer saw %d upcalls, want the one PROBLEM", l.up.Len())
		}
		if l.down.Len() != 1 || l.down.At(0).Type != core.DAck {
			t.Errorf("layer saw %d downcalls, want the one ack", l.down.Len())
		}
	}
}

func TestGroupAccessorsAndControlDowncalls(t *testing.T) {
	tr := &fakeTransport{}
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, tr)
	ep.SetTrace(func(string, ...interface{}) {})
	rec := &recordLayer{}
	g, err := ep.Join("g", core.StackSpec{
		func() core.Layer { return rec },
		func() core.Layer { return &passLayer{} },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Addr() != "g" || g.Endpoint() != ep {
		t.Error("accessors broken")
	}
	if g.View() != nil {
		t.Error("view before any installation")
	}
	if g.Stack().Len() != 2 {
		t.Errorf("stack len = %d", g.Stack().Len())
	}

	// Every control downcall that carries a detail reaches the stack
	// with it intact.
	x := core.EndpointID{Site: "x", Birth: 9}
	v := core.NewView(core.ViewID{Seq: 1, Coord: ep.ID()}, "g", []core.EndpointID{ep.ID(), x})
	g.Flush([]core.EndpointID{x})
	g.Merge(x)
	g.MergeGranted(x)
	g.MergeDenied(x, "no")
	g.InstallView(v)
	if d := g.Dump(); d != "PASS: ok" {
		t.Errorf("dump = %q", d)
	}
	for i, want := range []struct {
		typ core.EventType
		ok  func(*core.Detail) bool
	}{
		{core.DFlush, func(d *core.Detail) bool { return len(d.Failed) == 1 && d.Failed[0] == x }},
		{core.DMerge, func(d *core.Detail) bool { return d.Contact == x }},
		{core.DMergeGranted, func(d *core.Detail) bool { return d.Contact == x }},
		{core.DMergeDenied, func(d *core.Detail) bool { return d.Contact == x && d.Reason == "no" }},
		{core.DView, func(d *core.Detail) bool { return d.View == v }},
		{core.DDump, func(d *core.Detail) bool { return len(d.Dump) == 1 && d.Dump[0] == "PASS: ok" }},
	} {
		if i >= rec.down.Len() {
			t.Fatalf("%d downcalls reached the stack, want %d", rec.down.Len(), i+1)
		}
		ev := rec.down.At(i)
		if ev.Type != want.typ || ev.Detail == nil || !want.ok(ev.Detail) {
			t.Errorf("downcall %d: %v with detail %+v", i, ev, ev.Detail)
		}
	}

	// The data path allocates no Detail: not for a cast, a send, an
	// acknowledgement, a stability report or an arriving packet.
	rec.down, rec.up = core.Queue{}, core.Queue{}
	g.Cast(message.New([]byte("c")))
	g.Send([]core.EndpointID{x}, message.New([]byte("s")))
	g.Ack(core.MsgID{Origin: x, Seq: 1})
	g.Stable(core.MsgID{Origin: ep.ID(), Seq: 1})
	ep.Deliver("g", message.New([]byte("p")).Marshal())
	var types []core.EventType
	var seen []*core.Event
	for _, q := range []*core.Queue{&rec.down, &rec.up} {
		q.Drain(func(ev *core.Event) { seen = append(seen, ev) })
	}
	for _, ev := range seen {
		types = append(types, ev.Type)
		if ev.Detail != nil {
			t.Errorf("%v carries a Detail: %+v", ev, ev.Detail)
		}
	}
	if want := []core.EventType{core.DCast, core.DSend, core.DAck, core.DStable, core.UPacket}; !slices.Equal(types, want) {
		t.Errorf("data events %v, want %v", types, want)
	}

	// An event without its Detail still renders.
	if s := (&core.Event{Type: core.UView}).String(); s != "VIEW" {
		t.Errorf("String = %q", s)
	}

	g.FlushOK()
	if ep.Malformed() != 0 {
		t.Error("spurious malformed count")
	}
}

// InstallView builds one view of the groups given, in their order,
// coordinated by the first under its address, and issues it once at
// every group's stack through the view downcall.
func TestInstallView(t *testing.T) {
	var (
		groups []*core.Group
		ids    []core.EndpointID
		recs   []*recordLayer
	)
	for i, site := range []string{"a", "b", "c"} {
		ep := core.NewEndpoint(core.EndpointID{Site: site, Birth: uint64(i + 1)}, nullTransport{})
		rec := &recordLayer{}
		g, err := ep.Join("g", core.StackSpec{
			func() core.Layer { return rec },
			func() core.Layer { return &passLayer{} },
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		groups, ids, recs = append(groups, g), append(ids, ep.ID()), append(recs, rec)
	}
	v := core.InstallView(groups...)
	if v.ID != (core.ViewID{Seq: 1, Coord: ids[0]}) || v.Group != "g" || !slices.Equal(v.Members, ids) {
		t.Fatalf("view %v of %q with members %v, want seq 1 coordinated by %v of \"g\" with %v",
			v.ID, v.Group, v.Members, ids[0], ids)
	}
	for i, rec := range recs {
		if rec.down.Len() != 1 || rec.down.At(0).Type != core.DView || rec.down.At(0).View != v {
			t.Errorf("member %d: %d downcalls, want the one view downcall with %v", i, rec.down.Len(), v)
		}
	}
}

// nilLayer reads a detail field of every arrival, which a packet does
// not carry: a bug in a layer.
type nilLayer struct {
	core.Base
	view *core.View
}

func (n *nilLayer) Name() string { return "NIL" }

func (n *nilLayer) Up(ev *core.Event) {
	n.view = ev.View
	n.Ctx.Up(ev)
}

// A layer's bug is not line noise: the endpoint does not count it as a
// malformed packet and swallow it, the panic leaves the delivery.
func TestLayerBugPanicsOutOfDelivery(t *testing.T) {
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, &fakeTransport{})
	if _, err := ep.Join("g", core.StackSpec{
		func() core.Layer { return &nilLayer{} },
		func() core.Layer { return &passLayer{} },
	}, nil); err != nil {
		t.Fatal(err)
	}
	var r any
	func() {
		defer func() { r = recover() }()
		ep.Deliver("g", message.New([]byte("p")).Marshal())
	}()
	if _, ok := r.(runtime.Error); !ok {
		t.Errorf("Deliver panicked with %v, want the layer's nil dereference", r)
	}
	if n := ep.Malformed(); n != 0 {
		t.Errorf("Malformed = %d, want 0", n)
	}
}

// popLayer pops an integer header from every arrival.
type popLayer struct{ core.Base }

func (p *popLayer) Name() string { return "POP" }

func (p *popLayer) Up(ev *core.Event) {
	ev.Msg.PopUint()
	p.Ctx.Up(ev)
}

// A header shorter than what a layer reads is line damage: the packet
// is dropped and counted, and delivery goes on. An integer is short when
// its encoding runs off the end of the headers, or past the ten bytes a
// 64-bit value takes.
func TestShortHeaderCountedMalformed(t *testing.T) {
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, &fakeTransport{})
	delivered := 0
	if _, err := ep.Join("g", core.StackSpec{
		func() core.Layer { return &popLayer{} },
		func() core.Layer { return &passLayer{} },
	}, func(*core.Event) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	truncated := message.New([]byte("p"))
	truncated.Push([]byte{0x80, 0x80})
	overlong := message.New([]byte("p"))
	overlong.Push(append(bytes.Repeat([]byte{0xFF}, 10), 0x01))
	whole := message.New([]byte("p"))
	whole.PushUint(1 << 63)
	ep.Deliver("g", truncated.Marshal())
	ep.Deliver("g", overlong.Marshal())
	ep.Deliver("g", whole.Marshal())
	if n := ep.Malformed(); n != 2 || delivered != 1 {
		t.Errorf("Malformed = %d, delivered %d; want 2 and 1", n, delivered)
	}
}

// TestDeliverAllocs pins the receive path of the NAK:COM waist: from
// Endpoint.Deliver to the application handler a packet the handler
// reads and drops costs nothing — its record, holding event, message and
// group, which is also the executor's queue entry, is the spent one of
// the packet before (Deliver) — and a packet the handler holds costs
// that record, once. The message is a view of the wire buffer, the
// source address is recognised against the view in place, and no
// closure is built.
func TestDeliverAllocs(t *testing.T) {
	const casts = 128
	waist := core.StackSpec{nak.New, com.New}
	a := core.EndpointID{Site: "a", Birth: 1}
	b := core.EndpointID{Site: "b", Birth: 2}
	view := core.NewView(core.ViewID{Seq: 1, Coord: a}, "g", []core.EndpointID{a, b})
	images := castImages(t, a, view, waist, 2*casts)

	delivered, holding := 0, false
	kept := make([]*core.Event, 0, casts)
	rx := core.NewEndpoint(b, &fakeTransport{})
	var rg *core.Group
	rg, err := rx.Join("g", waist, func(ev *core.Event) {
		if ev.Type == core.UCast && ev.Source == a {
			delivered++
			if holding {
				rg.Hold(ev)
				kept = append(kept, ev)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rg.InstallView(view)
	next := 0
	deliver := func() {
		rx.Deliver("g", images[next])
		next++
	}
	if n := testing.AllocsPerRun(casts-1, deliver); n != 0 {
		t.Errorf("Deliver of a packet the handler drops: %v allocations, want 0", n)
	}
	holding = true
	if n := testing.AllocsPerRun(casts-1, deliver); n != 1 {
		t.Errorf("Deliver of a packet the handler holds: %v allocations, want 1", n)
	}
	if delivered != 2*casts || len(kept) != casts {
		t.Fatalf("delivered %d of %d replayed casts, kept %d", delivered, 2*casts, len(kept))
	}
}

// TestTransmitAllocatesNothing pins a cast's last step: the wire image
// of a message whose record holds it — headers pushed into the room in
// front of the body (message.AttachRecord) — is handed to the transport
// where it lies, so a transmission allocates nothing, the first render
// or a later one, and the transport keeps the very bytes Marshal would
// have produced. A message that cannot be rendered there costs exactly
// one allocation, its image: a message whose headers grew storage of
// their own away from the body (message.New and a push), or a
// retransmission that copied a kept message's headers into a record of
// its own (CopyFrom) and shares the body. Over a socket that is one
// allocation more than an endpoint's reused scratch buffer cost
// (udpnet's TestFragmentAndRetransmitAllocs).
func TestTransmitAllocatesNothing(t *testing.T) {
	tr := &fakeTransport{}
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, tr)
	g, err := ep.Join("g", core.StackSpec{func() core.Layer { return &passLayer{} }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inRecord := func() *message.Message {
		m := message.New(make([]byte, 64))
		m.AttachRecord(make([]byte, 32+64), 32)
		m.PushUint(7)
		return m
	}
	msg, small := inRecord(), message.New([]byte("x"))
	want := [][]byte{msg.Marshal(), small.Marshal()}
	ep.Do(func() { g.Stack().Down(core.NewCast(msg)) })
	ep.Do(func() { g.Stack().Down(core.NewCast(small)) })
	msg.PushUint8(1) // pushes after the send move; they write nothing sent
	small.PushUint8(1)
	if len(tr.sent) != 2 || !bytes.Equal(tr.sent[0].wire, want[0]) || !bytes.Equal(tr.sent[1].wire, want[1]) {
		t.Fatalf("transport kept %+v, want the two marshalled messages", tr.sent)
	}

	quiet := core.NewEndpoint(core.EndpointID{Site: "b", Birth: 2}, nullTransport{})
	pass := &passLayer{}
	if g, err = quiet.Join("g", core.StackSpec{func() core.Layer { return pass }}, nil); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	casts := func(msg func() *message.Message) []*core.Event {
		evs := make([]*core.Event, runs+1) // AllocsPerRun warms up with one run more
		for i := range evs {
			evs[i] = core.NewCast(msg())
		}
		return evs
	}
	again, kept := inRecord(), inRecord().Clone()
	for _, tc := range []struct {
		name   string
		evs    []*core.Event
		allocs float64
	}{
		{"a message in its record", casts(inRecord), 0},
		{"the same message again", casts(func() *message.Message { return again }), 0},
		{"a message pushed onto outside any record", casts(func() *message.Message {
			m := message.New(make([]byte, 64))
			m.PushUint(7)
			return m
		}), 1},
		{"a retransmission copied from a kept message", casts(func() *message.Message {
			m := pass.Ctx.NewSendTo(core.EndpointID{Site: "c", Birth: 3}, 0).Msg // outside any run: the collector's
			m.CopyFrom(kept)
			return m
		}), 1},
	} {
		i := 0
		transmit := func() {
			g.Stack().Down(tc.evs[i])
			i++
		}
		if allocs := testing.AllocsPerRun(runs, func() { quiet.Do(transmit) }); allocs != tc.allocs {
			t.Errorf("Transmit of %s: %v allocations, want %v", tc.name, allocs, tc.allocs)
		}
	}
}

// TestDowncallAllocs pins what entering a stack costs: a Table 1
// downcall is one record — the event, its message and its group, which
// is also the executor's queue entry — and no closure. Cast copies the
// application's Message into it, so message.New's does not escape. A
// cast whose message reached the transport gives its record back when
// its run ends, and the next cast takes a spent one: once the
// endpoint keeps enough of them, a cast allocates nothing but the
// slab's chunk its header room and body are carved from, one per
// about 170 casts of 64 bytes, which AllocsPerRun's average truncates
// to 0. A downcall that sends nothing — an acknowledgement, a
// stability report, a flush consent — costs its record. Through
// NAK:COM a cast of message.New(body) allocates nothing either: NAK
// retains the cast by sharing its slab bytes and COM hands the
// transport its wire image where it lies.
func TestDowncallAllocs(t *testing.T) {
	quiet := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, nullTransport{})
	g, err := quiet.Join("g", core.StackSpec{func() core.Layer { return &passLayer{} }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := message.New(make([]byte, 64))
	for _, tc := range []struct {
		name     string
		downcall func()
		allocs   float64
	}{
		{"Cast", func() { g.Cast(msg) }, 0},
		{"Ack", func() { g.Ack(core.MsgID{}) }, 1},
		{"Stable", func() { g.Stable(core.MsgID{}) }, 1},
		{"FlushOK", func() { g.FlushOK() }, 1},
	} {
		if allocs := testing.AllocsPerRun(100, tc.downcall); allocs != tc.allocs {
			t.Errorf("%s: %v allocations per downcall, want %v", tc.name, allocs, tc.allocs)
		}
	}

	a := core.EndpointID{Site: "a", Birth: 1}
	b := core.EndpointID{Site: "b", Birth: 2}
	waist := core.NewEndpoint(a, nullTransport{})
	if g, err = waist.Join("g", core.StackSpec{nak.New, com.New}, nil); err != nil {
		t.Fatal(err)
	}
	g.InstallView(core.NewView(core.ViewID{Seq: 1, Coord: a}, "g", []core.EndpointID{a, b}))
	body := make([]byte, 64)
	// b acknowledges nothing, so NAK's ring doubles until it holds the
	// default retention: 600 casts take it to 1024 slots, and the runs
	// measured end before the 1025th cast doubles it again.
	for i := 0; i < 600; i++ {
		g.Cast(message.New(body))
	}
	if allocs := testing.AllocsPerRun(100, func() { g.Cast(message.New(body)) }); allocs != 0 {
		t.Errorf("cast through NAK:COM: %v allocations, want 0", allocs)
	}
}

// mallocs returns how many heap allocations fn makes, counted exactly:
// with the collector off, whose cycles allocate a little of their own.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSendRecordAllocs pins what a message a layer builds costs. Its
// record is lent for the run that made it (Context.NewSendTo) and goes
// back when the run ends, so in steady state a run takes a spent one
// and allocates no record. Its header storage, what the caller asks for
// and 48 bytes of room, is carved from the endpoint's slab, which
// allocates a chunk only when the one it carves from runs out: runs
// that each make one record cost exactly the chunks their storage
// begins. A request over a quarter of a chunk gets storage of its own,
// one allocation per record. Each record takes every byte of its room
// without moving, and a push past it costs the one move any message's
// would. NewDowncall costs the same and borrows the list it is given.
func TestSendRecordAllocs(t *testing.T) {
	const room, warm, runs = 48, 64, 2000
	dst := core.EndpointID{Site: "b", Birth: 2}
	dests := []core.EndpointID{dst, {Site: "c", Birth: 3}}
	pad := make([]byte, message.SlabSize)
	for _, tc := range []struct {
		name  string
		hdr   int
		over  bool // push a byte past the room
		cast  bool // NewDowncall to dests
		carve bool // from the slab, not storage of its own
	}{
		{"fixed-width fields", 0, false, false, true},
		{"a vector", 216, false, false, true},
		{"a vector to a list", 216, false, true, true},
		{"the largest carved", message.SlabSize/4 - room, false, false, true},
		{"past its room", 0, true, false, true},
		{"too large to carve", message.SlabSize/4 - room + 1, false, false, false},
	} {
		ep, c := queueCtx(t)
		n := tc.hdr + room
		var bad string
		build := func() {
			var ev *core.Event
			if tc.cast {
				ev = c.NewDowncall(core.DCast, dests, tc.hdr)
			} else {
				ev = c.NewSendTo(dst, tc.hdr)
			}
			ev.Msg.Push(pad[:n])
			switch {
			case tc.cast && (ev.Type != core.DCast || len(ev.Dests) != 2 || &ev.Dests[0] != &dests[0]):
				bad = fmt.Sprintf("NewDowncall built %v to %v, not a cast to the list it was given", ev, ev.Dests)
			case !tc.cast && (ev.Type != core.DSend || len(ev.Dests) != 1 || ev.Dests[0] != dst):
				bad = fmt.Sprintf("NewSendTo built %v to %v", ev, ev.Dests)
			case ev.Msg.HeaderLen() != n:
				bad = fmt.Sprintf("%d header bytes, want %d", ev.Msg.HeaderLen(), n)
			}
			if tc.over {
				ev.Msg.PushUint8(1)
			}
		}
		run := func() { ep.Do(build) }
		for range warm {
			run()
		}
		got := mallocs(func() {
			for range runs {
				run()
			}
		})
		// The slab's first chunk came with the first record; a chunk
		// holds per records, and record k begins chunk k/per.
		var want uint64 = runs
		if per := message.SlabSize / n; tc.carve {
			want = uint64((warm+runs-1)/per - (warm-1)/per)
		}
		if tc.over {
			want += runs
		}
		if got != want || bad != "" {
			t.Errorf("%s: %d runs of one record made %d allocations, want %d %s", tc.name, runs, got, want, bad)
		}
	}
}
