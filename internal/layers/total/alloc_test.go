package total

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/netsim"
)

// lowerHeaders is what the §7 stack pushes under TOTAL on a send:
// MBRSHIP's kind, FRAG's [last][length], NAK's [kind][seq] and COM's
// [source][kind], for an endpoint with a five-character site name and
// integers below 128.
const lowerHeaders = 1 + 2 + 2 + (1 + 1 + 5 + 1)

// TestControlSendAllocs pins what TOTAL's own traffic costs where it is
// made and all the way down the §7 stack: a token request and a token
// pass cost nothing. Each is a record lent for its run — event, message
// and destination — with header storage for every layer's header carved
// from the endpoint's slab (core.Context.NewSendTo), and the waiting
// queue and its index are reused from one pass to the next. Each cost
// one allocation, its record, while every record a layer built was left
// to the collector.
func TestControlSendAllocs(t *testing.T) {
	ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("self")
	g, err := ep.Join("g", core.StackSpec{
		NewWith(WithRequestRetry(0)),
		layertest.Below(lowerHeaders),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	holder, waiting := layertest.ID("holder", 1), layertest.ID("waiting", 3)
	g.InstallView(core.NewView(core.ViewID{Seq: 1, Coord: holder}, "g", []core.EndpointID{holder, ep.ID(), waiting}))
	l := g.Focus("TOTAL").(*Total)

	request := func() { l.sendReq() }
	if allocs := testing.AllocsPerRun(100, func() { ep.Do(request) }); allocs != 0 {
		t.Errorf("a token request: %v allocations, want 0", allocs)
	}
	if got := l.Stats().Requests; got != 101 {
		t.Fatalf("%d requests sent over 101 runs", got)
	}

	// A pass with one member asking and another still waiting behind it.
	pass := func() {
		l.holder = true
		for _, id := range []core.EndpointID{waiting, holder} {
			l.queued[id] = true
			l.queue = append(l.queue, id)
		}
		l.serveQueue()
	}
	ep.Do(pass) // sizes the queue
	if allocs := testing.AllocsPerRun(100, func() { ep.Do(pass) }); allocs != 0 {
		t.Errorf("a token pass: %v allocations, want 0", allocs)
	}
	if got := l.Stats().TokenOps; got != 102 || l.holder || len(l.queue) != 0 || len(l.queued) != 0 {
		t.Fatalf("%d token passes over 102 runs; holder=%v queue=%v", got, l.holder, l.queue)
	}
}
