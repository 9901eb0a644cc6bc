package core_test

import (
	"bytes"
	"errors"
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

func TestGroupAccessorsAndControlDowncalls(t *testing.T) {
	tr := &fakeTransport{}
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, tr)
	ep.SetTrace(func(string, ...interface{}) {})
	g, err := ep.Join("g", core.StackSpec{func() core.Layer { return &passLayer{} }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Addr() != "g" || g.Endpoint() != ep {
		t.Error("accessors broken")
	}
	if g.View() != nil {
		t.Error("view before any installation")
	}
	if g.Stack().Len() != 1 {
		t.Errorf("stack len = %d", g.Stack().Len())
	}
	// Control downcalls traverse without effect on a pass-through
	// stack; they must not panic or mutate anything observable.
	g.Stable(core.MsgID{Origin: ep.ID(), Seq: 1})
	g.FlushOK()
	g.MergeDenied(core.EndpointID{Site: "x", Birth: 9}, "no")
	g.MergeGranted(core.EndpointID{Site: "x", Birth: 9})
	if ep.Malformed() != 0 {
		t.Error("spurious malformed count")
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

	quiet := core.NewEndpoint(core.EndpointID{Site: "b", Birth: 2}, nullTransportSkip{})
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
	quiet := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, nullTransportSkip{})
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
	waist := core.NewEndpoint(a, nullTransportSkip{})
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
// asks for, a request for up to 32 bytes gets the 80-byte record and
// one for up to 192 the 240-byte record, header storage inside the one
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
	}{{0, 80, 1}, {32, 80, 1}, {33, 240, 1}, {192, 240, 1}, {193, 241, 2}} {
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
