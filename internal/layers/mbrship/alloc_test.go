package mbrship

import (
	"testing"
	"unsafe"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/netsim"
)

// lowerHeaders is what the §7 stack pushes under MBRSHIP on a send:
// FRAG's [last][length], NAK's [kind][seq] and COM's [source][kind],
// for an endpoint with a five-character site name.
const lowerHeaders = 5 + 9 + (8 + 4 + 5 + 1)

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
			l.delivered[m] = uint64(i)
		}
	})

	round := func() { l.gossip() }
	ep.Do(round) // sizes the count vector and the ack matrix
	if allocs := testing.AllocsPerRun(100, func() { ep.Do(round) }); allocs != 1 {
		t.Errorf("a gossip round: %v allocations, want 1", allocs)
	}
	consent := func() { l.sendConsent(coord, 7) }
	if allocs := testing.AllocsPerRun(100, func() { ep.Do(consent) }); allocs != 1 {
		t.Errorf("a flush reply: %v allocations, want 1", allocs)
	}
}

// TestSelfCastSize pins the record of a sender's own delivery to the
// allocator's 208-byte size class, as core's TestRecordSizes pins the
// packet record it mirrors: one is allocated per cast this member makes.
func TestSelfCastSize(t *testing.T) {
	if n := unsafe.Sizeof(selfCast{}); n > 208 {
		t.Errorf("selfCast is %d bytes, want at most 208", n)
	}
}
