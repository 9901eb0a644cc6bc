package nak

import (
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/netsim"
)

// comHeader is what COM pushes under NAK: [source][kind], for the
// endpoint named "self" (birth and site length a byte each).
const comHeader = 1 + 1 + len("self") + 1

// fromPeer stands in for COM beneath NAK: it pushes COM's header onto
// what goes down, and reads every packet that comes up as a cast from
// src.
type fromPeer struct {
	core.Layer // layertest.Below
	ctx        *core.Context
	src        core.EndpointID
}

func (f *fromPeer) Init(c *core.Context) error {
	f.ctx = c
	return f.Layer.Init(c)
}

func (f *fromPeer) Up(ev *core.Event) {
	ev.Type, ev.Source = core.UCast, f.src
	f.ctx.Up(ev)
}

// leanNak is a NAK layer over a stand-in for COM with its timers off
// and a four-member view installed; every packet delivered to the
// endpoint is a cast from the first of the three peers, and what NAK
// passes up goes to h.
func leanNak(t *testing.T, h core.Handler) (*core.Endpoint, *core.Group, *Nak, []core.EndpointID) {
	t.Helper()
	ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("self")
	peers := []core.EndpointID{layertest.ID("p1", 2), layertest.ID("p2", 3), layertest.ID("p3", 4)}
	g, err := ep.Join("g", core.StackSpec{
		NewWith(WithStatusPeriod(0), WithNakResend(0)),
		func() core.Layer { return &fromPeer{Layer: layertest.Below(comHeader)(), src: peers[0]} },
	}, h)
	if err != nil {
		t.Fatal(err)
	}
	view := core.NewView(core.ViewID{Seq: 1, Coord: ep.ID()}, "g", append([]core.EndpointID{ep.ID()}, peers...))
	g.InstallView(view)
	return ep, g, g.Focus("NAK").(*Nak), peers
}

// TestUnicastThroughNakAllocs pins what the waist charges a send from
// the layers above: nothing. The last destination, usually the only
// one, is sequenced in place, like a cast, and each destination before
// it gets a copy in a record lent for the run (core.Context.NewSendTo).
// Each copy cost one allocation while every record a layer built was
// left to the collector.
func TestUnicastThroughNakAllocs(t *testing.T) {
	const runs = 100
	ep, g, l, peers := leanNak(t, nil)
	for k := 1; k <= 3; k++ {
		// Control messages as a layer above builds them: a header, no
		// body. The rings are warmed past their retention limit first, so
		// they have grown to the size they keep.
		const warm = retainN + retainN/4 + 1
		sends := make([]*core.Event, warm+runs+1)
		for i := range sends {
			m := message.NewWithHeadroom(64, nil)
			m.PushUint(uint64(i))
			sends[i] = core.NewSend(m, append([]core.EndpointID(nil), peers[:k]...))
		}
		next := 0
		send := func() {
			g.Stack().Down(sends[next])
			next++
		}
		for next < warm {
			ep.Do(send)
		}
		before := l.Stats().DataSent
		if allocs := testing.AllocsPerRun(runs, func() { ep.Do(send) }); allocs != 0 {
			t.Errorf("a send to %d: %v allocations in NAK, want 0", k, allocs)
		}
		if got := l.Stats().DataSent - before; got != (runs+1)*k {
			t.Fatalf("a send to %d: %d copies sequenced over %d sends", k, got, runs+1)
		}
	}
}

// TestControlSendAllocs pins the cost of NAK's own traffic, COM's
// header included: nothing. A status round to each member addressed, a
// range request and a place holder are each a record lent for the run
// (core.Context.NewSendTo). A status round cost one allocation per
// member, and a request or a place holder one, while every record a
// layer built was left to the collector.
func TestControlSendAllocs(t *testing.T) {
	ep, _, l, peers := leanNak(t, nil)
	// Cast streams from every member, and unicast streams with one.
	ep.Do(func() {
		l.openIn(l.self, streamCast).delivered = 7
		for i, p := range peers {
			l.openIn(l.peerFor(p), streamCast).delivered = uint64(i)
		}
		l.peerFor(peers[0]).uniOut.next = 3
	})
	round := func() { l.sendStatus() }
	ep.Do(round) // sizes the count vector
	before := l.Stats().StatusSent
	if allocs := testing.AllocsPerRun(100, func() { ep.Do(round) }); allocs != 0 {
		t.Errorf("a status round to %d members: %v allocations, want 0", len(peers), allocs)
	}
	if got := l.Stats().StatusSent - before; got != 101*len(peers) {
		t.Fatalf("%d status packets over 101 rounds", got)
	}
	request := func() { l.sendRange(peers[1], kindNak, streamCast, 3, 9) }
	if allocs := testing.AllocsPerRun(100, func() { ep.Do(request) }); allocs != 0 {
		t.Errorf("a range request: %v allocations, want 0", allocs)
	}
}

// TestParkedArrivalAllocs pins what reordering costs a receiver: after
// warm-up, a cast that overtakes the one before it is parked behind the
// gap, and the cast that fills the gap is delivered and releases it,
// with no allocation between them. Both arrive in records the endpoint
// reuses (core.Endpoint.Deliver), and the parked cast goes up in one
// too (core.Context.UpParked); NAK keeps its message by value.
//
// The stream has learned a reorder window and holds one cast far ahead,
// as a member joining a long-running stream does, so its timer waits
// out the window across every pair (the network never runs) and no
// arrival asks: what is measured is the parking and the drain. A
// request costs one send record (TestControlSendAllocs).
func TestParkedArrivalAllocs(t *testing.T) {
	const warm, runs = 8, 100
	var delivered, wrong int // the i-th cast delivered reads body(i+1)
	body := func(seq uint64) byte { return byte('a' + seq%26) }
	src := layertest.ID("p1", 2) // leanNak's first peer
	ep, _, l, _ := leanNak(t, func(ev *core.Event) {
		delivered++
		if ev.Type != core.UCast || ev.Source != src || ev.Msg.Body()[0] != body(uint64(delivered)) {
			wrong++
		}
	})
	cast := func(seq uint64) []byte {
		m := message.New([]byte{body(seq)})
		m.PushUint(seq)
		m.PushUint8(kindData)
		return m.Marshal()
	}
	ep.Do(func() { l.peerFor(src).window = time.Millisecond })
	ep.Deliver("g", cast(1<<40))
	var images [][]byte
	for seq := uint64(1); seq <= 2*(warm+runs+1); seq += 2 {
		images = append(images, cast(seq+1), cast(seq)) // each pair overtaken
	}
	pair := func() {
		ep.Deliver("g", images[0])
		ep.Deliver("g", images[1])
		images = images[2:]
	}
	for range warm {
		pair()
	}
	if allocs := testing.AllocsPerRun(runs, pair); allocs != 0 {
		t.Errorf("a cast parked behind a gap, then the cast that fills it: %v allocations, want 0", allocs)
	}
	if st := l.Stats(); st.OutOfOrder != 1+warm+runs+1 || st.NaksSent != 0 || st.Duplicates != 0 {
		t.Fatalf("stats %+v: want every second cast parked, nothing asked for, no duplicates", st)
	}
	if delivered != 2*(warm+runs+1) || wrong != 0 {
		t.Fatalf("%d casts delivered, %d not the next cast from %s; want %d, all in order", delivered, wrong, src, 2*(warm+runs+1))
	}
}
