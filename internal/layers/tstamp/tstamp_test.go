package tstamp_test

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layers/tstamp"
	"horus/internal/layertest"
	"horus/internal/message"
)

func TestStampsVectorOnCast(t *testing.T) {
	h := layertest.New(t, tstamp.New)
	peer := layertest.ID("p", 2)
	h.InstallView(h.Self(), peer)

	h.InjectDown(core.NewCast(message.New([]byte("x"))))
	sent := h.LastDown()
	// Echo back: the vector must surface in ev.Timestamp.
	h.InjectUp(&core.Event{Type: core.UCast, Msg: sent.Msg.Clone(), Source: h.Self()})
	got := h.LastUp()
	if got == nil || got.Timestamp == nil {
		t.Fatal("no timestamp attached")
	}
	if len(got.Timestamp) != 2 {
		t.Fatalf("vector length %d, want 2", len(got.Timestamp))
	}
	// Self (birth 1) is older than the peer (birth 2), so self has
	// rank 0. Our first send stamps 1 in our own entry.
	if got.Timestamp[0] != 1 || got.Timestamp[1] != 0 {
		t.Fatalf("vector = %v, want [1 0]", got.Timestamp)
	}
	if st := h.G.Focus("TSTAMP").(*tstamp.Tstamp).Stats(); st.Stamped != 1 {
		t.Fatalf("Stamped = %d, want 1", st.Stamped)
	}
}

func TestVectorCarriesCausalDependency(t *testing.T) {
	h := layertest.New(t, tstamp.New)
	peer := layertest.ID("p", 2)
	h.InstallView(h.Self(), peer)

	// Receive the peer's 3rd message: build a stamped message the way
	// a peer TSTAMP would (counts, then the kind byte).
	peerMsg := message.New([]byte("from peer"))
	pushCounts(peerMsg, []uint64{0, 3}) // peer is rank 1
	peerMsg.PushUint8(1)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: peerMsg, Source: peer})

	// ...then send: our vector must record the dependency.
	h.InjectDown(core.NewCast(message.New([]byte("reply"))))
	sent := h.LastDown().Msg.Clone()
	h.InjectUp(&core.Event{Type: core.UCast, Msg: sent, Source: h.Self()})
	got := h.LastUp()
	if got.Timestamp[0] != 1 || got.Timestamp[1] != 3 {
		t.Fatalf("vector = %v, want [1 3]", got.Timestamp)
	}
}

func TestVectorResetsOnView(t *testing.T) {
	h := layertest.New(t, tstamp.New)
	peer := layertest.ID("p", 2)
	h.InstallView(h.Self(), peer)
	h.InjectDown(core.NewCast(message.New([]byte("a"))))
	// New view: counters restart.
	v2 := core.NewView(core.ViewID{Seq: 2, Coord: peer}, "test", []core.EndpointID{peer, h.Self()})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v2}})
	h.Reset()
	h.InjectDown(core.NewCast(message.New([]byte("b"))))
	sent := h.LastDown().Msg.Clone()
	h.InjectUp(&core.Event{Type: core.UCast, Msg: sent, Source: h.Self()})
	if ts := h.LastUp().Timestamp; ts[0] != 1 {
		t.Fatalf("vector after view change = %v, want own entry (rank 0) = 1", ts)
	}
}

func TestCastBeforeViewErrors(t *testing.T) {
	h := layertest.New(t, tstamp.New)
	h.InjectDown(core.NewCast(message.New([]byte("early"))))
	if got := h.UpOfType(core.USystemError); len(got) != 1 {
		t.Fatalf("no SYSTEM_ERROR for a cast before the first view: %v", got)
	}
	if got := h.DownOfType(core.DCast); len(got) != 0 {
		t.Fatal("unstamped cast leaked downward")
	}
}

// pushCounts mirrors wire.PushCounts for test message construction.
func pushCounts(m *message.Message, counts []uint64) {
	for i := len(counts) - 1; i >= 0; i-- {
		m.PushUint(counts[i])
	}
	m.PushUint(uint64(len(counts)))
}
