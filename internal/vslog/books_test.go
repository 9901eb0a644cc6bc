package vslog

import (
	"fmt"
	"slices"
	"testing"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/wire"
)

// books is a layer that is nothing but the shared books: an Exchange
// that forwards log, and a Ledger.
type books struct {
	core.Base
	x      Exchange
	log    Log
	ledger Ledger
}

func (*books) Name() string { return "BOOKS" }

func (b *books) Init(c *core.Context) error {
	if err := b.Base.Init(c); err != nil {
		return err
	}
	b.x.Init(c, "books", func(ev *core.Event) { b.log.Add(ev.ID.Origin, ev.ID.Seq, ev.Msg) })
	b.ledger.Init(c)
	return nil
}

func (b *books) Down(ev *core.Event) {
	if ev.Type == core.DAck {
		b.ledger.Ack(ev.ID)
		return
	}
	b.Ctx.Down(ev)
}

func (b *books) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		b.x.Cast(ev)
	case core.USend:
		b.x.Receive(ev)
	case core.UFlush:
		b.x.Start(ev.Failed, &b.log)
	case core.UView:
		b.x.View(ev.View)
		b.log.Reset()
		b.ledger.View(ev.View)
	}
}

var (
	p1 = layertest.ID("p1", 2)
	p2 = layertest.ID("p2", 3)
)

func newBooks(t *testing.T, members ...core.EndpointID) *layertest.Harness {
	t.Helper()
	h := layertest.New(t, func() core.Layer { return &books{} })
	h.InstallView(append([]core.EndpointID{h.Self()}, members...)...)
	h.Reset()
	return h
}

func view(h *layertest.Harness, seq uint64, members ...core.EndpointID) {
	v := core.NewView(core.ViewID{Seq: seq, Coord: h.Self()}, "test", append([]core.EndpointID{h.Self()}, members...))
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v}})
}

// A step of an exchange script: a flush counting failed as failed, a
// DONE from a peer sent under failed, or the next view.
type step struct {
	flush bool
	from  core.EndpointID
	view  []core.EndpointID
	fail  []core.EndpointID
}

func flushing(failed ...core.EndpointID) step { return step{flush: true, fail: failed} }
func doneBy(from core.EndpointID, failed ...core.EndpointID) step {
	return step{from: from, fail: failed}
}
func nextView(members ...core.EndpointID) step { return step{view: members} }

func TestExchangeConsent(t *testing.T) {
	for _, tc := range []struct {
		name     string
		steps    []step
		consents int
	}{
		{"waits for every survivor",
			[]step{flushing(), doneBy(p1)}, 0},
		{"consents once every survivor is done",
			[]step{flushing(), doneBy(p1), doneBy(p2)}, 1},
		{"failed members are not waited for",
			[]step{flushing(p2), doneBy(p1, p2)}, 1},
		{"a DONE under a narrower failure set does not count",
			[]step{flushing(p2), doneBy(p1)}, 0},
		{"a DONE under a wider failure set counts",
			[]step{doneBy(p1, p2), flushing(p2)}, 1},
		{"a DONE counts for the latest flush only",
			[]step{flushing(), doneBy(p1), flushing(p2)}, 0},
		{"DONEs do not outlive a view",
			[]step{doneBy(p1), doneBy(p2), nextView(p1, p2), flushing()}, 0},
		{"failures do not outlive a view",
			[]step{flushing(p2), doneBy(p1, p2), nextView(p1, p2), flushing(), doneBy(p1, p2)}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newBooks(t, p1, p2)
			for i, s := range tc.steps {
				switch {
				case s.flush:
					h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: s.fail}})
				case s.view != nil:
					view(h, uint64(i+2), s.view...)
				default:
					m := message.New(nil)
					PushBatch(m, &Log{}, nil)
					wire.PushIDList(m, s.fail, nil)
					m.PushUint8(kDone)
					h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: s.from})
				}
			}
			if got := len(h.DownOfType(core.DFlushOK)); got != tc.consents {
				t.Errorf("%d consents, want %d", got, tc.consents)
			}
		})
	}
}

// A flush forwards every log entry to the survivors other than this
// member, in the DONE naming the failures; a forward is delivered once,
// named by the cast it carries.
func TestExchangeForwards(t *testing.T) {
	h := newBooks(t, p1, p2)
	cast := func(src core.EndpointID, seq uint64) *core.Event {
		return &core.Event{Type: core.UCast, Msg: message.New([]byte(fmt.Sprint(src.Site, seq))),
			Source: src, ID: core.MsgID{Origin: src, Seq: seq}}
	}
	h.InjectUp(cast(p1, 1))
	h.InjectUp(cast(p2, 1))
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: []core.EndpointID{p2}}})
	var sent []string
	for _, ev := range h.DownOfType(core.DSend) {
		if len(ev.Dests) != 1 || ev.Dests[0] != p1 {
			t.Fatalf("sent to %v, want the one survivor p1", ev.Dests)
		}
		if ev.Msg.PopUint8() != kDone {
			continue
		}
		failed := wire.PopIDList(ev.Msg, nil, nil)
		batch, ok := PopBatch(ev.Msg, nil, nil)
		if !ok {
			t.Fatal("the DONE's batch does not read")
		}
		batch.Each(func(origin core.EndpointID, seq uint64, _ []byte) {
			sent = append(sent, fmt.Sprintf("fwd %s/%d", origin.Site, seq))
		})
		sent = append(sent, fmt.Sprint("done ", failed))
	}
	if got, want := fmt.Sprint(sent), fmt.Sprint([]string{"fwd p1/1", "fwd p2/1", "done [p2#3]"}); got != want {
		t.Fatalf("flush sent %s, want %s", got, want)
	}

	h.Reset()
	var log Log
	log.Add(p2, 2, message.New([]byte("p2 2")))
	fwd := message.New(nil)
	PushBatch(fwd, &log, nil)
	wire.PushIDList(fwd, nil, nil)
	fwd.PushUint8(kDone)
	h.InjectUp(&core.Event{Type: core.USend, Msg: fwd, Source: p1})
	h.InjectUp(cast(p2, 2))
	got := h.UpOfType(core.UCast)
	if len(got) != 1 || got[0].ID != (core.MsgID{Origin: p2, Seq: 2}) || got[0].Source != p2 || string(got[0].Msg.Body()) != "p2 2" {
		t.Fatalf("delivered %v, want the forward of p2/2 once, named p2/2", got)
	}
}

// TestExchangeForwardAllocs pins what a member's DONE costs where it is
// made: to three survivors, with its log as the batch, it is the list
// of survivors and the one buffer every logged image is copied into,
// however many casts the log holds. Its send record is lent for the run
// (core.Context.NewDowncall); it cost a third allocation while every
// record a layer built was left to the collector.
func TestExchangeForwardAllocs(t *testing.T) {
	ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("self")
	g, err := ep.Join("g", core.StackSpec{func() core.Layer { return &books{} }, layertest.Below(12)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Focus("BOOKS").(*books)
	members := []core.EndpointID{ep.ID(), p1, p2, layertest.ID("p3", 4)}
	ep.Do(func() { b.x.View(core.NewView(core.ViewID{Seq: 2, Coord: ep.ID()}, "g", members)) })
	for _, casts := range []int{1, 64} {
		ep.Do(func() {
			b.log.Reset()
			for i := range casts {
				msg := message.New(make([]byte, 64))
				msg.PushUint(uint64(i)) // the headers of the layers above
				b.log.Add(members[i%len(members)], uint64(i/len(members)+1), msg)
			}
		})
		flush := func() { b.x.Start(nil, &b.log) }
		sent := b.x.Forwarded
		ep.Do(flush)
		if got := b.x.Forwarded - sent; got != casts {
			t.Fatalf("a DONE forwarding %d logged casts counted %d", casts, got)
		}
		if allocs := testing.AllocsPerRun(100, func() { ep.Do(flush) }); allocs != 2 {
			t.Errorf("a DONE forwarding %d logged casts to 3 survivors: %v allocations, want 2 (the survivors and the batch)",
				casts, allocs)
		}
	}
}

func TestLedgerFold(t *testing.T) {
	ack := func(h *layertest.Harness, origin core.EndpointID, seq uint64) {
		h.InjectDown(&core.Event{Type: core.DAck, ID: core.MsgID{Origin: origin, Seq: seq}})
	}
	ledger := func(h *layertest.Harness) *Ledger { return &h.G.Focus("BOOKS").(*books).ledger }
	rank := func(m *core.StabilityMatrix, e core.EndpointID) int { return slices.Index(m.Members, e) }
	cell := func(m *core.StabilityMatrix, origin, member core.EndpointID) uint64 {
		return m.Acked[rank(m, origin)][rank(m, member)]
	}

	t.Run("out-of-order acks fold once contiguous", func(t *testing.T) {
		h := newBooks(t, p1)
		ack(h, p1, 2)
		if n := len(h.UpOfType(core.UStable)); n != 0 {
			t.Errorf("%d reports after an ack beyond a gap, want 0", n)
		}
		ack(h, p1, 1)
		ups := h.UpOfType(core.UStable)
		if len(ups) != 1 || cell(ups[0].Stability, p1, h.Self()) != 2 {
			t.Fatalf("reports %v after the gap filled, want one with p1's count 2", ups)
		}
		ack(h, p1, 2)
		if n := len(h.UpOfType(core.UStable)); n != 1 {
			t.Errorf("a repeated ack reported: %d reports, want 1", n)
		}
	})

	t.Run("a view rebuild keeps the survivors' entries", func(t *testing.T) {
		h := newBooks(t, p1, p2)
		m := ledger(h).Matrix
		m.Raise(rank(m, p1), rank(m, p1), 5)
		m.Raise(rank(m, p2), rank(m, p1), 4)
		ack(h, p1, 1)
		view(h, 2, p1)
		m = ledger(h).Matrix
		if cell(m, p1, p1) != 5 || cell(m, p1, h.Self()) != 1 {
			t.Errorf("matrix %v after p2 left, want p1's entries kept", m)
		}
		if rank(m, p2) >= 0 {
			t.Errorf("matrix %v keeps the departed p2", m)
		}
	})

	t.Run("a departed origin raises nothing", func(t *testing.T) {
		h := newBooks(t, p1, p2)
		ack(h, p2, 1)
		view(h, 2, p1)
		h.Reset()
		ack(h, p1, 2) // beyond a gap: moves nothing
		if n := len(h.UpOfType(core.UStable)); n != 0 {
			t.Errorf("%d reports after an ack that moved nothing, want 0", n)
		}
	})
}
