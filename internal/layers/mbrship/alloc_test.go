package mbrship

import (
	"fmt"
	"testing"
	"unsafe"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/wire"
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

// TestSelfCastSize pins the record of a sender's own delivery to the
// allocator's 208-byte size class, as core's TestRecordSizes pins the
// packet record it mirrors: one is allocated per cast this member makes.
func TestSelfCastSize(t *testing.T) {
	if n := unsafe.Sizeof(selfCast{}); n > 208 {
		t.Errorf("selfCast is %d bytes, want at most 208", n)
	}
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
		wire.PushCounts(&msg, counts)
		l.pushViewTag(&msg)
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
