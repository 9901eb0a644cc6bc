package core_test

import (
	"bytes"
	"errors"
	"runtime"
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
	// wire is the sender's scratch: a transport that keeps it copies it.
	f.sent = append(f.sent, fakeSend{from, group, dests, append([]byte(nil), wire...)})
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

// recordLayer keeps every event that passes it, in each direction.
type recordLayer struct {
	core.Base
	down, up []*core.Event
}

func (r *recordLayer) Name() string { return "RECORD" }

func (r *recordLayer) Down(ev *core.Event) {
	r.down = append(r.down, ev)
	r.Ctx.Down(ev)
}

func (r *recordLayer) Up(ev *core.Event) {
	r.up = append(r.up, ev)
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
		if len(l.up) != 1 || l.up[0] != problem {
			t.Errorf("layer saw upcalls %v, want the one PROBLEM", l.up)
		}
		if len(l.down) != 1 || l.down[0].Type != core.DAck {
			t.Errorf("layer saw downcalls %v, want the one ack", l.down)
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
		if i >= len(rec.down) {
			t.Fatalf("%d downcalls reached the stack, want %d", len(rec.down), i+1)
		}
		ev := rec.down[i]
		if ev.Type != want.typ || ev.Detail == nil || !want.ok(ev.Detail) {
			t.Errorf("downcall %d: %v with detail %+v", i, ev, ev.Detail)
		}
	}

	// The data path allocates no Detail: not for a cast, a send, an
	// acknowledgement, a stability report or an arriving packet.
	rec.down, rec.up = nil, nil
	g.Cast(message.New([]byte("c")))
	g.Send([]core.EndpointID{x}, message.New([]byte("s")))
	g.Ack(core.MsgID{Origin: x, Seq: 1})
	g.Stable(core.MsgID{Origin: ep.ID(), Seq: 1})
	ep.Deliver("g", message.New([]byte("p")).Marshal())
	var types []core.EventType
	for _, ev := range append(rec.down, rec.up...) {
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

// popLayer pops an eight-byte header from every arrival.
type popLayer struct{ core.Base }

func (p *popLayer) Name() string { return "POP" }

func (p *popLayer) Up(ev *core.Event) {
	ev.Msg.PopUint64()
	p.Ctx.Up(ev)
}

// A header shorter than what a layer reads is line damage: the packet
// is dropped and counted, and delivery goes on.
func TestShortHeaderCountedMalformed(t *testing.T) {
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, &fakeTransport{})
	delivered := 0
	if _, err := ep.Join("g", core.StackSpec{
		func() core.Layer { return &popLayer{} },
		func() core.Layer { return &passLayer{} },
	}, func(*core.Event) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	short := message.New([]byte("p"))
	short.PushUint32(1)
	whole := message.New([]byte("p"))
	whole.PushUint64(1)
	ep.Deliver("g", short.Marshal())
	ep.Deliver("g", whole.Marshal())
	if n := ep.Malformed(); n != 1 || delivered != 1 {
		t.Errorf("Malformed = %d, delivered %d; want 1 and 1", n, delivered)
	}
}

// TestDeliverAllocatesOncePerPacket pins the receive path of the
// NAK:COM waist: from Endpoint.Deliver to the application handler a
// packet costs one allocation — the record holding event, message and
// group, which is also the executor's queue entry. The message is a
// view of the wire buffer, the source address is recognised against
// the view in place, and no closure is built.
func TestDeliverAllocatesOncePerPacket(t *testing.T) {
	const casts = 128
	waist := core.StackSpec{nak.New, com.New}
	a := core.EndpointID{Site: "a", Birth: 1}
	b := core.EndpointID{Site: "b", Birth: 2}
	view := core.NewView(core.ViewID{Seq: 1, Coord: a}, "g", []core.EndpointID{a, b})

	// Capture a's cast images as the fabric would carry them.
	tr := &fakeTransport{}
	tx := core.NewEndpoint(a, tr)
	tg, err := tx.Join("g", waist, nil)
	if err != nil {
		t.Fatal(err)
	}
	tg.InstallView(view)
	var images [][]byte
	tx.SetWireTap(func(_ []core.EndpointID, wire []byte) {
		images = append(images, append([]byte(nil), wire...))
	})
	for i := 0; i < casts; i++ {
		tg.Cast(message.New(make([]byte, 64)))
	}
	if len(images) != casts {
		t.Fatalf("captured %d images of %d casts", len(images), casts)
	}

	delivered := 0
	rx := core.NewEndpoint(b, &fakeTransport{})
	rg, err := rx.Join("g", waist, func(ev *core.Event) {
		if ev.Type == core.UCast && ev.Source == a {
			delivered++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rg.InstallView(view)
	next := 0
	allocs := testing.AllocsPerRun(casts-1, func() {
		rx.Deliver("g", images[next])
		next++
	})
	if delivered != casts {
		t.Fatalf("delivered %d of %d replayed casts", delivered, casts)
	}
	if allocs != 1 {
		t.Errorf("Deliver: %v allocations per packet, want 1", allocs)
	}
}

// TestTransmitAllocatesNothing pins a cast's last step: the
// wire image is rendered into a buffer the endpoint keeps, so once that
// has grown to the size of the traffic a transmission allocates nothing
// — and the transport sees the same bytes Marshal would have produced.
func TestTransmitAllocatesNothing(t *testing.T) {
	tr := &fakeTransport{}
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, tr)
	g, err := ep.Join("g", core.StackSpec{func() core.Layer { return &passLayer{} }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := message.New(make([]byte, 64))
	msg.PushUint64(7)
	cast := func() { g.Stack().Down(core.NewCast(msg)) }
	ep.Do(cast)
	small := message.New([]byte("x"))
	ep.Do(func() { g.Stack().Down(core.NewCast(small)) })
	if len(tr.sent) != 2 || !bytes.Equal(tr.sent[0].wire, msg.Marshal()) || !bytes.Equal(tr.sent[1].wire, small.Marshal()) {
		t.Fatalf("transport saw %+v, want the two marshalled messages", tr.sent)
	}

	quiet := core.NewEndpoint(core.EndpointID{Site: "b", Birth: 2}, nullTransport{})
	if g, err = quiet.Join("g", core.StackSpec{func() core.Layer { return &passLayer{} }}, nil); err != nil {
		t.Fatal(err)
	}
	ev := core.NewCast(msg)
	cast = func() { g.Stack().Down(ev) }
	if allocs := testing.AllocsPerRun(100, func() { quiet.Do(cast) }); allocs != 0 {
		t.Errorf("Transmit: %v allocations per message at steady state, want 0", allocs)
	}
}

// TestCastAllocatesOncePerDowncall pins what entering a stack costs: a
// Table 1 downcall is one record — the event and its group, which is
// also the executor's queue entry — and no closure. Through NAK:COM a
// cast of message.New(body) then costs three allocations in all: the
// application's Message, that record, whose room takes both layers'
// headers, and the copy of the body NAK retains for retransmission.
func TestCastAllocatesOncePerDowncall(t *testing.T) {
	quiet := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, nullTransport{})
	g, err := quiet.Join("g", core.StackSpec{func() core.Layer { return &passLayer{} }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := message.New(make([]byte, 64))
	g.Cast(msg) // grows the endpoint's transmit buffer
	for name, downcall := range map[string]func(){
		"Cast":    func() { g.Cast(msg) },
		"Ack":     func() { g.Ack(core.MsgID{}) },
		"Stable":  func() { g.Stable(core.MsgID{}) },
		"FlushOK": func() { g.FlushOK() },
	} {
		if allocs := testing.AllocsPerRun(100, downcall); allocs != 1 {
			t.Errorf("%s: %v allocations per downcall, want 1", name, allocs)
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
	if allocs := testing.AllocsPerRun(100, func() { g.Cast(message.New(body)) }); allocs != 3 {
		t.Errorf("cast through NAK:COM: %v allocations, want 3", allocs)
	}
}

// TestSendRecordAllocs pins NewSendTo's size classes at their edges:
// with 48 bytes of room for fixed-width fields added to what the caller
// asks for, a request for up to 48 bytes gets the 96-byte record and
// one for up to 208 the 256-byte record, header storage inside the one
// allocation; a larger one gets exactly what it needs, separately.
// Each takes every byte of its room without moving, and a push past it
// costs the one move any message's would.
func TestSendRecordAllocs(t *testing.T) {
	dst := core.EndpointID{Site: "b", Birth: 2}
	dests := []core.EndpointID{dst, {Site: "c", Birth: 3}}
	pad := make([]byte, 512)
	var ev *core.Event
	for _, tc := range []struct {
		hdr, room int
		allocs    float64
	}{{0, 96, 1}, {48, 96, 1}, {49, 256, 1}, {208, 256, 1}, {209, 257, 2}} {
		fill := func() {
			ev = core.NewSendTo(dst, tc.hdr)
			ev.Msg.Push(pad[:tc.room])
		}
		if allocs := testing.AllocsPerRun(100, fill); allocs != tc.allocs {
			t.Errorf("hdr %d, %d bytes pushed: %v allocations, want %v", tc.hdr, tc.room, allocs, tc.allocs)
		}
		if ev.Type != core.DSend || len(ev.Dests) != 1 || ev.Dests[0] != dst || ev.Msg.HeaderLen() != tc.room {
			t.Errorf("hdr %d: event %v to %v with %d header bytes", tc.hdr, ev, ev.Dests, ev.Msg.HeaderLen())
		}
		overfill := func() {
			fill()
			ev.Msg.PushUint8(1)
		}
		if allocs := testing.AllocsPerRun(100, overfill); allocs != tc.allocs+1 {
			t.Errorf("hdr %d, %d bytes pushed: %v allocations, want %v", tc.hdr, tc.room+1, allocs, tc.allocs+1)
		}
		all := func() {
			ev = core.NewSendToAll(dests, tc.hdr)
			ev.Msg.Push(pad[:tc.room])
		}
		if allocs := testing.AllocsPerRun(100, all); allocs != tc.allocs {
			t.Errorf("hdr %d, to a list: %v allocations, want %v", tc.hdr, allocs, tc.allocs)
		}
		if len(ev.Dests) != 2 || &ev.Dests[0] != &dests[0] {
			t.Errorf("hdr %d: NewSendToAll copied its destinations", tc.hdr)
		}
	}
}
