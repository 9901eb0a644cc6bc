package nak

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/netsim"
)

// comHeader is what COM pushes under NAK: [source][kind], for the
// endpoint named "self" (birth and site length a byte each).
const comHeader = 1 + 1 + len("self") + 1

// leanNak is a NAK layer over a stand-in for COM with its timers off
// and a four-member view installed.
func leanNak(t *testing.T) (*core.Endpoint, *core.Group, *Nak, []core.EndpointID) {
	t.Helper()
	ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("self")
	g, err := ep.Join("g", core.StackSpec{
		NewWith(WithStatusPeriod(0), WithNakResend(0)),
		layertest.Below(comHeader),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	peers := []core.EndpointID{layertest.ID("p1", 2), layertest.ID("p2", 3), layertest.ID("p3", 4)}
	view := core.NewView(core.ViewID{Seq: 1, Coord: ep.ID()}, "g", append([]core.EndpointID{ep.ID()}, peers...))
	g.InstallView(view)
	return ep, g, g.Focus("NAK").(*Nak), peers
}

// TestUnicastThroughNakAllocs pins what the waist charges a send from
// the layers above: nothing for one destination — it is sequenced in
// place, like a cast — and one record for each destination before the
// last.
func TestUnicastThroughNakAllocs(t *testing.T) {
	const runs = 100
	ep, g, l, peers := leanNak(t)
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
		if allocs := testing.AllocsPerRun(runs, func() { ep.Do(send) }); allocs != float64(k-1) {
			t.Errorf("a send to %d: %v allocations in NAK, want %d", k, allocs, k-1)
		}
		if got := l.Stats().DataSent - before; got != (runs+1)*k {
			t.Fatalf("a send to %d: %d copies sequenced over %d sends", k, got, runs+1)
		}
	}
}

// TestControlSendAllocs pins the cost of NAK's own traffic, COM's
// header included: a status round is one record per member addressed
// and nothing per round, a range request or a place holder one record.
func TestControlSendAllocs(t *testing.T) {
	ep, _, l, peers := leanNak(t)
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
	if allocs := testing.AllocsPerRun(100, func() { ep.Do(round) }); allocs != float64(len(peers)) {
		t.Errorf("a status round to %d members: %v allocations, want one each", len(peers), allocs)
	}
	if got := l.Stats().StatusSent - before; got != 101*len(peers) {
		t.Fatalf("%d status packets over 101 rounds", got)
	}
	request := func() { l.sendRange(peers[1], kindNak, streamCast, 3, 9) }
	if allocs := testing.AllocsPerRun(100, func() { ep.Do(request) }); allocs != 1 {
		t.Errorf("a range request: %v allocations, want 1", allocs)
	}
}
