package stable_test

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layers/stable"
	"horus/internal/layertest"
	"horus/internal/message"
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
	if got := ups[len(ups)-1].Stability.Get(peer, h.Self()); got != 1 {
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
		if got := ups[len(ups)-1].Stability.Get(peer, h.Self()); got != 0 {
			t.Fatalf("matrix = %d after out-of-order ack, want 0", got)
		}
	}
	h.InjectDown(&core.Event{Type: core.DAck, ID: core.MsgID{Origin: peer, Seq: 1}})
	h.InjectDown(&core.Event{Type: core.DAck, ID: core.MsgID{Origin: peer, Seq: 2}})
	ups = h.UpOfType(core.UStable)
	if len(ups) == 0 {
		t.Fatal("no STABLE upcalls")
	}
	if got := ups[len(ups)-1].Stability.Get(peer, h.Self()); got != 3 {
		t.Fatalf("matrix = %d after filling the ack gap, want 3", got)
	}
}

func TestPeerAckVectorsMerge(t *testing.T) {
	h, peer := setup(t)
	// The peer gossips that it processed 5 of our messages.
	m := message.New(nil)
	// counts then ids then kind — mirror of wire encoding used by the
	// layer: PushCounts, PushIDList, kind.
	pushCounts(m, []uint64{5, 0})
	pushIDList(m, []core.EndpointID{h.Self(), peer})
	m.PushUint8(3) // kAcks
	h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: peer})
	ups := h.UpOfType(core.UStable)
	if len(ups) == 0 {
		t.Fatal("no STABLE upcall after peer gossip")
	}
	if got := ups[len(ups)-1].Stability.Get(h.Self(), peer); got != 5 {
		t.Fatalf("matrix[self,peer] = %d, want 5", got)
	}
}

func pushCounts(m *message.Message, counts []uint64) {
	for i := len(counts) - 1; i >= 0; i-- {
		m.PushUint(counts[i])
	}
	m.PushUint(uint64(len(counts)))
}

func pushIDList(m *message.Message, ids []core.EndpointID) {
	for i := len(ids) - 1; i >= 0; i-- {
		m.PushString(ids[i].Site)
		m.PushUint(ids[i].Birth)
	}
	m.PushUint(uint64(len(ids)))
}
