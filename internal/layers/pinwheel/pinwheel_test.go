package pinwheel_test

import (
	"slices"
	"testing"

	"horus/internal/core"
	"horus/internal/layers/pinwheel"
	"horus/internal/layertest"
	"horus/internal/message"
)

func setup(t *testing.T) (*layertest.Harness, core.EndpointID) {
	t.Helper()
	h := layertest.New(t, pinwheel.New)
	peer := layertest.ID("p", 2)
	h.InstallView(h.Self(), peer) // self is rank 0: first token holder
	h.Reset()
	return h, peer
}

func TestRankZeroStartsRotation(t *testing.T) {
	h, peer := setup(t)
	h.Run(5 * pinwheel.Hold)
	var tokens int
	for _, ev := range h.DownOfType(core.DSend) {
		m := ev.Msg.Clone()
		if m.PopUint8() == 3 { // kToken
			tokens++
			if ev.Dests[0] != peer {
				t.Fatalf("token sent to %v, want next in rank %v", ev.Dests, peer)
			}
		}
	}
	if tokens == 0 {
		t.Fatal("rank 0 never launched the token")
	}
}

func TestStampsAndIdentifiesLikeStable(t *testing.T) {
	h, peer := setup(t)
	h.InjectDown(core.NewCast(message.New([]byte("x"))))
	sent := h.LastDown()
	kind := sent.Msg.PopUint8()
	seq := sent.Msg.PopUint()
	if kind != 1 || seq != 1 {
		t.Fatalf("kind=%d seq=%d", kind, seq)
	}
	m := message.New([]byte("in"))
	m.PushUint(4)
	m.PushUint8(1)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
	if got := h.LastUp(); got.ID.Seq != 4 || got.ID.Origin != peer {
		t.Fatalf("ID = %v", got.ID)
	}
}

func TestLocalAcksReportStable(t *testing.T) {
	h, peer := setup(t)
	m := message.New([]byte("in"))
	m.PushUint(1)
	m.PushUint8(1)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
	h.InjectDown(&core.Event{Type: core.DAck, ID: core.MsgID{Origin: peer, Seq: 1}})
	ups := h.UpOfType(core.UStable)
	if len(ups) == 0 {
		t.Fatal("no STABLE upcall after local ack")
	}
	if got := acked(ups[len(ups)-1].Stability, peer, h.Self()); got != 1 {
		t.Fatalf("matrix = %d", got)
	}
}

func TestIncomingTokenMergesAndPassesOn(t *testing.T) {
	h, peer := setup(t)
	// Build a token the way a peer would: rows (reverse), members,
	// kind. Claim the peer acked 9 of our messages.
	m := message.New(nil)
	// rows pushed in reverse order of members [self, peer]:
	pushCounts(m, []uint64{0, 0}) // row for peer's stream
	pushCounts(m, []uint64{0, 9}) // row for our stream: peer processed 9
	pushIDList(m, []core.EndpointID{h.Self(), peer})
	m.PushUint8(3)
	h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: peer})

	ups := h.UpOfType(core.UStable)
	if len(ups) == 0 {
		t.Fatal("no STABLE after token merge")
	}
	if got := acked(ups[len(ups)-1].Stability, h.Self(), peer); got != 9 {
		t.Fatalf("merged matrix = %d, want 9", got)
	}
	// After the hold period the token moves on.
	h.Reset()
	h.Run(3 * pinwheel.Hold)
	var tokens int
	for _, ev := range h.DownOfType(core.DSend) {
		if ev.Msg.Clone().PopUint8() == 3 {
			tokens++
		}
	}
	if tokens == 0 {
		t.Fatal("token parked forever")
	}
}

// TestTokenDuringTheViewHoldPassesOnce: rank 0 holds a token from the
// view on, so a token merged in while that hold runs is carried by the
// pass already pending. One hold timer means one pass, not a second
// token behind the first.
func TestTokenDuringTheViewHoldPassesOnce(t *testing.T) {
	h, peer := setup(t)
	m := message.New(nil)
	pushCounts(m, []uint64{0, 0})
	pushCounts(m, []uint64{0, 9})
	pushIDList(m, []core.EndpointID{h.Self(), peer})
	m.PushUint8(3)
	h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: peer})
	h.Run(2 * pinwheel.Hold) // under the watchdog's 3 holds per member
	var tokens int
	for _, ev := range h.DownOfType(core.DSend) {
		if ev.Msg.Clone().PopUint8() == 3 {
			tokens++
		}
	}
	if tokens != 1 {
		t.Fatalf("%d token passes, want 1", tokens)
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

// An origin that left the view has no row in the matrix, so an ack that
// moves nothing raises no STABLE upcall, whatever was acked of the
// departed origin before.
func TestDepartedOriginRaisesNothing(t *testing.T) {
	h, peer := setup(t)
	x := layertest.ID("x", 3)
	h.InstallView(h.Self(), peer, x)
	h.InjectDown(&core.Event{Type: core.DAck, ID: core.MsgID{Origin: x, Seq: 1}})
	h.InstallView(h.Self(), peer)
	h.Reset()
	h.InjectDown(&core.Event{Type: core.DAck, ID: core.MsgID{Origin: peer, Seq: 2}}) // beyond a gap
	if n := len(h.UpOfType(core.UStable)); n != 0 {
		t.Fatalf("%d STABLE upcalls after an ack that moved nothing, want 0", n)
	}
}

// A token with a row of the wrong length is garbled: it raises nothing,
// not even the well-formed rows read before the bad one.
func TestTokenWithAShortRowRaisesNothing(t *testing.T) {
	h, peer := setup(t)
	m := message.New(nil)
	pushCounts(m, []uint64{0})    // row for peer's stream: one count short
	pushCounts(m, []uint64{0, 9}) // row for our stream, read first
	pushIDList(m, []core.EndpointID{h.Self(), peer})
	m.PushUint8(3)
	h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: peer})
	if n := len(h.UpOfType(core.UStable)); n != 0 {
		t.Fatalf("%d STABLE upcalls after a garbled token, want 0", n)
	}
	if got := acked(h.G.Focus("PINWHEEL").(*pinwheel.Pinwheel).Matrix(), h.Self(), peer); got != 0 {
		t.Fatalf("matrix = %d after a garbled token, want 0", got)
	}
}

// acked reads matrix entry (origin, member), each found at its rank.
func acked(m *core.StabilityMatrix, origin, member core.EndpointID) uint64 {
	return m.Acked[slices.Index(m.Members, origin)][slices.Index(m.Members, member)]
}
