package stable

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/netsim"
)

// lowerHeaders is what a STABLE:MBRSHIP:FRAG:NAK:COM stack pushes under
// STABLE on a send: MBRSHIP's kind, FRAG's [last][length], NAK's
// [kind][seq] and COM's [source][kind], for an endpoint with a
// five-character site name and integers below 128.
const lowerHeaders = 1 + 2 + 2 + (1 + 1 + 5 + 1)

// TestGossipRoundAllocs pins an ack gossip round to three other members
// at one allocation, its send record: the count vector is refilled
// from one round to the next, the destination list is built once per
// view, and the round's re-arm rides the timer's outstanding arm.
func TestGossipRoundAllocs(t *testing.T) {
	ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("site1")
	g, err := ep.Join("g", core.StackSpec{New, layertest.Below(lowerHeaders)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := g.Focus("STABLE").(*Stable)
	coord := layertest.ID("site0", 1)
	members := []core.EndpointID{coord, ep.ID(), layertest.ID("site2", 3), layertest.ID("site3", 4)}
	ep.Do(func() { l.applyView(core.NewView(core.ViewID{Seq: 2, Coord: coord}, "g", members)) })

	round := func() {
		l.dirty = true
		l.gossipTick()
	}
	ep.Do(round) // sizes the count vector
	if allocs := testing.AllocsPerRun(100, func() { ep.Do(round) }); allocs != 1 {
		t.Errorf("a gossip round: %v allocations, want 1", allocs)
	}
	if got := l.Stats().GossipsSent; got != 102 {
		t.Fatalf("%d gossips sent over 102 rounds", got)
	}
}
