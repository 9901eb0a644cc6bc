package mbrship

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/nak"
	"horus/internal/layers/total"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/vslog"
)

// lowerHeaders is what the §7 stack pushes under MBRSHIP on a send:
// FRAG's [last][length], NAK's [kind][seq] and COM's [source][kind],
// for an endpoint with a five-character site name and integers below
// 128.
const lowerHeaders = 2 + 2 + (1 + 1 + 5 + 1)

// TestControlSendAllocs pins what MBRSHIP's own traffic costs where it
// is made and all the way down the §7 stack: a gossip round to three
// other members and a flush reply are one record each, with no vector
// rebuilt per round.
func TestControlSendAllocs(t *testing.T) {
	ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("site1")
	g, err := ep.Join("g", core.StackSpec{
		NewWith(WithGossipPeriod(0)),
		layertest.Below(lowerHeaders),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := g.Focus("MBRSHIP").(*Mbrship)
	coord := layertest.ID("site0", 1)
	members := []core.EndpointID{coord, ep.ID(), layertest.ID("site2", 3), layertest.ID("site3", 4)}
	ep.Do(func() {
		l.install(core.NewView(core.ViewID{Seq: 2, Coord: coord}, "g", members))
		for i, m := range members {
			for seq := uint64(1); seq <= uint64(i); seq++ {
				l.delivered.Add(m, seq)
			}
		}
	})

	round := func() { l.gossip() }
	ep.Do(round) // sizes the count vector
	if allocs := testing.AllocsPerRun(100, func() { ep.Do(round) }); allocs != 1 {
		t.Errorf("a gossip round: %v allocations, want 1", allocs)
	}
	consent := func() { l.sendConsent(coord, 7) }
	if allocs := testing.AllocsPerRun(100, func() { ep.Do(consent) }); allocs != 1 {
		t.Errorf("a flush reply: %v allocations, want 1", allocs)
	}
}

// TestFlushForwardAllocs pins what a member's forward of its log costs
// where it is made: one batch to three survivors is its send record and
// the one buffer every logged image is copied into, however many casts
// the log holds.
func TestFlushForwardAllocs(t *testing.T) {
	ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("site1")
	g, err := ep.Join("g", core.StackSpec{
		NewWith(WithGossipPeriod(0)),
		layertest.Below(lowerHeaders),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := g.Focus("MBRSHIP").(*Mbrship)
	members := []core.EndpointID{layertest.ID("site0", 1), ep.ID(), layertest.ID("site2", 3), layertest.ID("site3", 4)}
	ep.Do(func() { l.install(core.NewView(core.ViewID{Seq: 2, Coord: members[0]}, "g", members)) })
	for _, casts := range []int{1, 64} {
		ep.Do(func() {
			l.log.Reset()
			for i := range casts {
				msg := message.New(make([]byte, 64))
				msg.PushUint(uint64(i)) // the headers of the layers above
				l.log.Add(members[i%len(members)], uint64(i/len(members)+1), msg)
			}
		})
		forward := func() { l.forwardLog(l.others, 7) }
		sent := l.stats.FwdsSent
		ep.Do(forward)
		if got := l.stats.FwdsSent - sent; got != casts {
			t.Fatalf("a forward of %d logged casts counted %d", casts, got)
		}
		if allocs := testing.AllocsPerRun(100, func() { ep.Do(forward) }); allocs != 2 {
			t.Errorf("a forward of %d logged casts to %d survivors: %v allocations, want 2 (the record and the batch)",
				casts, len(l.others), allocs)
		}
	}
}

// TestSelfDeliveryRidesInALentRecord pins a sender's own delivery of its
// cast at no allocation: it goes up in a receive record lent by the
// endpoint (core.Context.UpParked), so a cast through MBRSHIP costs its
// downcall record alone. A layer above that keeps the delivery holds
// the record as it would an arrival's: TOTAL parks a member's own cast
// stamped ahead of one still missing, while other packets arrive and
// reuse spent records, and delivers it intact after the missing one.
func TestSelfDeliveryRidesInALentRecord(t *testing.T) {
	t.Run("allocations", func(t *testing.T) {
		const warm, runs = 300, 100
		ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("site1")
		var delivered, wrong int
		body := func(i int) byte { return byte('a' + i%26) }
		g, err := ep.Join("g", core.StackSpec{
			NewWith(WithGossipPeriod(0)),
			layertest.Below(lowerHeaders),
		}, func(ev *core.Event) {
			if ev.Type != core.UCast {
				return
			}
			if ev.Source != ep.ID() || ev.Msg.Body()[0] != body(delivered) {
				wrong++
			}
			delivered++
		})
		if err != nil {
			t.Fatal(err)
		}
		l := g.Focus("MBRSHIP").(*Mbrship)
		members := []core.EndpointID{ep.ID(), layertest.ID("site2", 3)}
		ep.Do(func() { l.install(core.NewView(core.ViewID{Seq: 2, Coord: ep.ID()}, "g", members)) })
		msgs := make([]*message.Message, warm+runs+1)
		for i := range msgs {
			msgs[i] = message.New([]byte{body(i)})
		}
		cast := func() {
			g.Cast(msgs[0])
			msgs = msgs[1:]
		}
		for range warm { // the log's storage and the endpoint's spent records are made
			ep.Do(cast)
		}
		if allocs := testing.AllocsPerRun(runs, func() { ep.Do(cast) }); allocs != 1 {
			t.Errorf("a cast and its own delivery: %v allocations, want 1 (the downcall record)", allocs)
		}
		if delivered != warm+runs+1 || wrong != 0 {
			t.Errorf("%d own casts delivered, %d wrong; want %d, each its own body in order", delivered, wrong, warm+runs+1)
		}
	})

	t.Run("held", func(t *testing.T) {
		net := netsim.New(netsim.Config{Seed: 1, DefaultLink: netsim.Link{Delay: time.Millisecond}})
		groups := make([]*core.Group, 2)
		got := make([][]string, 2)
		for i := range groups {
			ep := net.NewEndpoint(fmt.Sprintf("m%d", i))
			var err error
			groups[i], err = ep.Join("g", core.StackSpec{total.New, New, nak.New, com.New}, func(ev *core.Event) {
				if ev.Type == core.UCast {
					got[i] = append(got[i], fmt.Sprintf("%s from %s", ev.Msg.Body(), ev.Source.Site))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := net.Form(groups, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		h, o := groups[0], groups[1]
		if !h.Focus("TOTAL").(*total.Total).Holder() {
			h, o = o, h
		}
		hi, oi := 0, 1
		if h == groups[1] {
			hi, oi = 1, 0
		}
		hID, oID := h.Endpoint().ID(), o.Endpoint().ID()
		start := net.Now()
		// The holder stamps its cast first; its copy to the other member
		// is lost. The other member then asks for the token, gets it and
		// stamps its own cast next: its own delivery of it waits in
		// TOTAL, held, until the holder's cast is recovered.
		net.At(start, func() {
			net.SetLink(hID, oID, netsim.Link{Delay: time.Millisecond, LossRate: 1})
			h.Cast(message.New([]byte("first")))
		})
		net.At(start+time.Millisecond/2, func() { net.SetLink(hID, oID, netsim.Link{Delay: time.Millisecond}) })
		net.At(start+time.Millisecond, func() { o.Cast(message.New([]byte("second"))) })
		net.RunFor(10 * time.Millisecond)
		if len(got[oi]) != 0 || o.Focus("TOTAL").(*total.Total).Stats().Stamped != 1 {
			t.Fatalf("10 ms on: %v delivered, %d stamped; want nothing delivered and its own cast stamped, held behind the lost one",
				got[oi], o.Focus("TOTAL").(*total.Total).Stats().Stamped)
		}
		net.RunFor(time.Second)
		want := fmt.Sprintf("[first from %s second from %s]", hID.Site, oID.Site)
		for _, i := range []int{hi, oi} {
			if fmt.Sprint(got[i]) != want {
				t.Errorf("member %d delivered %v, want %s", i, got[i], want)
			}
		}
	})
}

// gossipReceipt makes ep's member l the one member of an n-member view
// that hears the others' gossip, with two casts from every member in its
// log, and returns a function that delivers the next peer's gossip to
// it. Every peer reports the first cast of each origin delivered and
// the second not, so once each has reported, a receipt merges n counts,
// walks the log and trims nothing: the steady state of a group whose
// gossip keeps up with its casts. The gossip's image is pushed again
// before each receipt, into storage the message already has.
func gossipReceipt(tb testing.TB, n int) (ep *core.Endpoint, receive func()) {
	tb.Helper()
	ep = netsim.New(netsim.Config{Seed: 1}).NewEndpoint("site1")
	g, err := ep.Join("g", core.StackSpec{
		NewWith(WithGossipPeriod(0)),
		layertest.Below(lowerHeaders),
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	l := g.Focus("MBRSHIP").(*Mbrship)
	members := []core.EndpointID{ep.ID()}
	for i := 1; i < n; i++ {
		members = append(members, layertest.ID(fmt.Sprintf("peer%d", i), uint64(100+i)))
	}
	ep.Do(func() {
		l.install(core.NewView(core.ViewID{Seq: 2, Coord: members[0]}, "g", members))
		for _, o := range members {
			for seq := uint64(1); seq <= 2; seq++ {
				l.delivered.Add(o, seq)
				l.logClone(o, seq, message.New([]byte("cast")))
			}
		}
		l.gossip() // our own counts: every cast delivered
	})
	counts := make([]uint64, n)
	for i := range counts {
		counts[i] = 1
	}
	var msg message.Message
	ev := core.Event{Type: core.USend, Msg: &msg}
	next := 0
	receive = func() {
		next = next%(n-1) + 1
		ev.Source = members[next]
		vslog.PushVector(&msg, l.view.ID, counts)
		msg.PushUint8(kGossip)
		l.Up(&ev)
	}
	for i := 1; i < n; i++ {
		ep.Do(receive) // every peer has reported, and the storage is made
	}
	if got := l.log.Len(); got != n {
		tb.Fatalf("%d casts logged after every peer's gossip, want %d", got, n)
	}
	return ep, receive
}

// TestGossipReceiptAllocs pins a gossip receipt at no allocation, in a
// view of 4, 16 and 64: merging the vector into the stability matrix and
// trimming the log against it allocate nothing.
func TestGossipReceiptAllocs(t *testing.T) {
	for _, n := range []int{4, 16, 64} {
		ep, receive := gossipReceipt(t, n)
		if allocs := testing.AllocsPerRun(100, func() { ep.Do(receive) }); allocs != 0 {
			t.Errorf("a gossip receipt among %d members: %v allocations, want 0", n, allocs)
		}
	}
}

// BenchmarkGossipReceipt times one gossip receipt in steady state, in a
// view of 4, 16 and 64. Every member receives n-1 of them per gossip
// period.
func BenchmarkGossipReceipt(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			ep, receive := gossipReceipt(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				ep.Do(receive)
			}
		})
	}
}
