package stable_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"horus/internal/core"
	"horus/internal/layers/stable"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/vslog"
)

func setup(t *testing.T) (*layertest.Harness, core.EndpointID) {
	t.Helper()
	h := layertest.New(t, stable.New)
	peer := layertest.ID("p", 2)
	h.InstallView(h.Self(), peer)
	h.Reset()
	return h, peer
}

func TestAttachesMsgIDOnDelivery(t *testing.T) {
	h, peer := setup(t)
	// Build a stamped data message as a peer STABLE would: seq, kind.
	m := message.New([]byte("x"))
	m.PushUint(7)
	m.PushUint8(1)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
	got := h.LastUp()
	if got == nil || got.ID.Origin != peer || got.ID.Seq != 7 {
		t.Fatalf("ID = %v, want %v/7", got.ID, peer)
	}
}

func TestAcksGossipAndMatrixUpdates(t *testing.T) {
	h, peer := setup(t)
	m := message.New([]byte("x"))
	m.PushUint(1)
	m.PushUint8(1)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
	// The application acknowledges.
	h.InjectDown(&core.Event{Type: core.DAck, ID: core.MsgID{Origin: peer, Seq: 1}})

	// A STABLE upcall reports our own row immediately.
	ups := h.UpOfType(core.UStable)
	if len(ups) == 0 {
		t.Fatal("no STABLE upcall after local ack")
	}
	if got := acked(ups[len(ups)-1].Stability, peer, h.Self()); got != 1 {
		t.Fatalf("matrix[peer,self] = %d, want 1", got)
	}
	// The gossip timer spreads the ack vector.
	h.Run(5 * stable.AckPeriod)
	var gossips int
	for _, ev := range h.DownOfType(core.DSend) {
		_ = ev
		gossips++
	}
	if gossips == 0 {
		t.Fatal("ack vector never gossiped")
	}
}

func TestOutOfOrderAcksCountContiguously(t *testing.T) {
	h, peer := setup(t)
	for seq := uint64(1); seq <= 3; seq++ {
		m := message.New([]byte("x"))
		m.PushUint(seq)
		m.PushUint8(1)
		h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
	}
	// Ack 3 before 1 and 2: the matrix must not claim 3 processed.
	h.InjectDown(&core.Event{Type: core.DAck, ID: core.MsgID{Origin: peer, Seq: 3}})
	ups := h.UpOfType(core.UStable)
	if len(ups) != 0 {
		if got := acked(ups[len(ups)-1].Stability, peer, h.Self()); got != 0 {
			t.Fatalf("matrix = %d after out-of-order ack, want 0", got)
		}
	}
	h.InjectDown(&core.Event{Type: core.DAck, ID: core.MsgID{Origin: peer, Seq: 1}})
	h.InjectDown(&core.Event{Type: core.DAck, ID: core.MsgID{Origin: peer, Seq: 2}})
	ups = h.UpOfType(core.UStable)
	if len(ups) == 0 {
		t.Fatal("no STABLE upcalls")
	}
	if got := acked(ups[len(ups)-1].Stability, peer, h.Self()); got != 3 {
		t.Fatalf("matrix = %d after filling the ack gap, want 3", got)
	}
}

func TestPeerAckVectorsMerge(t *testing.T) {
	h, peer := setup(t)
	v := h.InstallView(h.Self(), peer) // the view setup installed
	h.Reset()
	// The peer gossips that it processed 5 of our messages.
	h.InjectUp(&core.Event{Type: core.USend, Msg: ackVector(h.Net, v, map[core.EndpointID]uint64{h.Self(): 5}), Source: peer})
	ups := h.UpOfType(core.UStable)
	if len(ups) == 0 {
		t.Fatal("no STABLE upcall after peer gossip")
	}
	if got := acked(ups[len(ups)-1].Stability, h.Self(), peer); got != 5 {
		t.Fatalf("matrix[self,peer] = %d, want 5", got)
	}
}

// ackVector builds a peer's ack gossip in v, its identifiers through
// dir: kind 3 (kAcks) over the acked count of each member of v in rank
// order, under v's ID.
func ackVector(dir core.Directory, v *core.View, acks map[core.EndpointID]uint64) *message.Message {
	counts := make([]uint64, len(v.Members))
	for i, o := range v.Members {
		counts[i] = acks[o]
	}
	m := message.New(nil)
	vslog.PushVector(m, v.ID, counts, dir)
	m.PushUint8(3)
	return m
}

// The ack gossip is the kind, the view's ID and a count per member in
// rank order: no list of origins travels beside the counts.
func TestGossipIsCountsUnderViewID(t *testing.T) {
	h, peer := setup(t)
	v := h.InstallView(h.Self(), peer)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: stamped(1), Source: peer})
	h.InjectDown(&core.Event{Type: core.DAck, ID: core.MsgID{Origin: peer, Seq: 1}})
	h.Reset()
	h.Run(stable.AckPeriod)
	sends := h.DownOfType(core.DSend)
	if len(sends) != 1 {
		t.Fatalf("%d gossips in one period, want 1", len(sends))
	}
	want := ackVector(h.Net, v, map[core.EndpointID]uint64{peer: 1})
	if got := sends[0].Msg; !bytes.Equal(got.Header(), want.Header()) {
		t.Fatalf("gossip header %x (%d bytes), want %x (%d bytes)",
			got.Header(), got.HeaderLen(), want.Header(), want.HeaderLen())
	}
}

// A vector sent in another view raises nothing, even one whose length
// fits ours: its ranks may name other members. One sent in ours does.
func TestVectorFromAnotherViewRaisesNothing(t *testing.T) {
	h, peer := setup(t)
	x := layertest.ID("x", 3)
	old := h.InstallView(h.Self(), peer)
	h.InstallView(h.Self(), peer, x)
	cur := h.InstallView(h.Self(), peer)
	h.Reset()
	for _, v := range []*core.View{old, cur} {
		h.InjectUp(&core.Event{Type: core.USend, Msg: ackVector(h.Net, v, map[core.EndpointID]uint64{h.Self(): 5}), Source: peer})
	}
	ups := h.UpOfType(core.UStable)
	if len(ups) != 1 {
		t.Fatalf("%d STABLE upcalls after a vector from an old view and one from ours, want 1", len(ups))
	}
	if got := acked(ups[0].Stability, h.Self(), peer); got != 5 {
		t.Fatalf("matrix[self,peer] = %d, want 5", got)
	}
}

// TestAckReceiptAllocs pins an ack gossip's receipt at no allocation:
// the vector is read where it lies, against the view it names. The
// vector repeats, so nothing rises and no STABLE upcall is made.
func TestAckReceiptAllocs(t *testing.T) {
	h := layertest.New(t, stable.New)
	members := []core.EndpointID{h.Self()}
	for i := range 15 {
		members = append(members, layertest.ID(fmt.Sprintf("p%d", i), uint64(i+2)))
	}
	v := h.InstallView(members...)
	counts := make([]uint64, len(v.Members))
	for i := range counts {
		counts[i] = uint64(i + 1)
	}
	var msg message.Message
	ev := core.Event{Type: core.USend, Msg: &msg, Source: members[7]}
	receive := func() {
		vslog.PushVector(&msg, v.ID, counts, nil)
		msg.PushUint8(3)
		h.Bot.Ctx.Up(&ev)
	}
	h.EP.Do(receive) // the first raises the column and makes the storage
	if allocs := testing.AllocsPerRun(100, func() { h.EP.Do(receive) }); allocs != 0 {
		t.Errorf("an ack gossip receipt among %d members: %v allocations, want 0", len(members), allocs)
	}
}

// stamped builds a peer's stamped cast: seq, then kind 1 (kData).
func stamped(seq uint64) *message.Message {
	m := message.New([]byte("x"))
	m.PushUint(seq)
	m.PushUint8(1)
	return m
}

// acked reads matrix entry (origin, member), each found at its rank.
func acked(m *core.StabilityMatrix, origin, member core.EndpointID) uint64 {
	return m.Acked[slices.Index(m.Members, origin)][slices.Index(m.Members, member)]
}
