package mbrship

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/vslog"
	"horus/internal/wire"
)

// joinedTrio boots one MBRSHIP member with its timers off (and opts)
// and has a announce the view {a, self, c}, flushed from the member's
// singleton.
func joinedTrio(t *testing.T, opts ...Option) (h *layertest.Harness, l *Mbrship, a, c core.EndpointID) {
	t.Helper()
	h = layertest.New(t, NewWith(append([]Option{WithGossipPeriod(0), WithFlushTimeout(0)}, opts...)...))
	h.Run(time.Millisecond) // the initial singleton view
	l = h.G.Focus("MBRSHIP").(*Mbrship)
	a, c = layertest.ID("a", 0), layertest.ID("c", 1<<40)
	v := core.NewView(core.ViewID{Seq: l.view.ID.Seq + 1, Coord: a}, "test", []core.EndpointID{a, h.Self(), c})
	h.InjectUp(&core.Event{Type: core.USend, Msg: announcement(v, l.view.ID), Source: a})
	if l.view.ID != v.ID {
		t.Fatalf("view %v not installed; still in %v", v.ID, l.view.ID)
	}
	h.Reset()
	return h, l, a, c
}

// announcement is a kView for v flushed from the single predecessor pred.
func announcement(v *core.View, pred core.ViewID) *message.Message {
	m := message.New(nil)
	wire.PushEndpointID(m, core.EndpointID{})
	wire.PushEndpointID(m, core.EndpointID{})
	m.PushUint(0)
	wire.PushEndpointID(m, pred.Coord)
	m.PushUint(pred.Seq)
	wire.PushView(m, v)
	m.PushUint8(kView)
	return m
}

// castIn delivers from's cast seq in the member's current view, as the
// layers below hand it up.
func castIn(h *layertest.Harness, l *Mbrship, from core.EndpointID, seq uint64) {
	m := message.New([]byte(fmt.Sprintf("%s-%d", from.Site, seq)))
	m.PushUint(seq)
	wire.PushViewID(m, l.view.ID)
	m.PushUint8(kData)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: from})
}

// A member that a has already left behind — a installed a view without
// it and trimmed what it alone had not delivered — still holds the old
// view, asks a for the casts it missed and is answered with a place
// holder: the layer below reports them lost and then hands up a's next
// cast, which follows the gap. Nothing of a's is delivered past the gap
// in this view: FIFO within a view would break, and every member moving
// on with this one would have to agree on a delivery the others never
// made. a is suspected instead, and the flush that closes the view
// starts; the other member's casts are delivered as before. Where
// suspicions come only from outside (WithExternalSuspicions), a's casts
// in the view end all the same and nobody is suspected.
func TestNoDeliveryPastAPlaceHolder(t *testing.T) {
	for _, external := range []bool{false, true} {
		var opts []Option
		if external {
			opts = append(opts, WithExternalSuspicions())
		}
		h, l, a, c := joinedTrio(t, opts...)
		castIn(h, l, a, 1)
		castIn(h, l, a, 2)
		castIn(h, l, c, 1)
		h.InjectUp(&core.Event{Type: core.ULostMessage, Source: a,
			Detail: &core.Detail{Reason: "seqs 3-4 no longer buffered by sender"}})
		castIn(h, l, a, 5)
		castIn(h, l, a, 6)
		castIn(h, l, c, 2)

		var got []string
		for _, ev := range h.UpOfType(core.UCast) {
			got = append(got, string(ev.Msg.Body()))
		}
		if want := "[a-1 a-2 c-1 c-2]"; fmt.Sprint(got) != want {
			t.Errorf("external %v: delivered %v, want %s", external, got, want)
		}
		if len(h.UpOfType(core.ULostMessage)) != 1 {
			t.Errorf("external %v: the loss was not reported upward", external)
		}
		ok := len(l.failedList()) == 0 && l.state == stNormal
		if !external {
			ok = l.suspects[l.view.Rank(a)] && l.state == stFlushing && l.flushCoord == h.Self()
		}
		if !ok {
			t.Errorf("external %v, after the gap: suspects %v, state %d, flush coordinator %v",
				external, l.failedList(), l.state, l.flushCoord)
		}
	}
}

// gossipIn is a peer's gossip: counts under the view tag (seq, coord).
func gossipIn(h *layertest.Harness, from core.EndpointID, seq uint64, coord core.EndpointID, counts ...uint64) {
	m := message.New(nil)
	vslog.PushVector(m, core.ViewID{Seq: seq, Coord: coord}, counts)
	m.PushUint8(kGossip)
	h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: from})
}

// A gossip vector carries counts alone, in the order of the member list
// its view tag names. One tagged with another view — a sibling with the
// same number under another coordinator, or a later number — or with
// a count per member too few or too many is not read against the
// current view, and trims nothing; the vector that fits does.
func TestGossipOfAnotherShapeTrimsNothing(t *testing.T) {
	h, l, a, c := joinedTrio(t)
	for seq := uint64(1); seq <= 3; seq++ {
		castIn(h, l, a, seq)
	}
	l.gossip() // our own counts: a 3, self 0, c 0
	id := l.view.ID
	for _, bad := range []struct {
		name   string
		seq    uint64
		coord  core.EndpointID
		counts []uint64
	}{
		{"a sibling's tag", id.Seq, c, []uint64{3, 0, 0}},
		{"a later view's tag", id.Seq + 1, id.Coord, []uint64{3, 0, 0}},
		{"too few counts", id.Seq, id.Coord, []uint64{3, 0}},
		{"too many counts", id.Seq, id.Coord, []uint64{3, 0, 0, 0}},
	} {
		gossipIn(h, a, bad.seq, bad.coord, bad.counts...)
		gossipIn(h, c, bad.seq, bad.coord, bad.counts...)
		if n := len(logged(l, a)); n != 3 {
			t.Fatalf("%s: %d of a's 3 casts left in the log, want all", bad.name, n)
		}
	}
	gossipIn(h, a, id.Seq, id.Coord, 3, 0, 0)
	gossipIn(h, c, id.Seq, id.Coord, 2, 0, 0)
	if got := logged(l, a); len(got) != 1 || got[0].seq != 3 {
		t.Fatalf("after both peers' gossip: log of a %v, want cast 3 alone", got)
	}
}

// Gossip is read against the member list of the view its tag names,
// which holds because a coordinator never issues one ViewID twice: a
// successor is numbered above every view it was flushed from. An
// announcement flushed from our view that does not advance our epoch
// is refused, so the epoch never falls and no later view of ours can
// reuse an ID.
func TestSuccessorThatDoesNotAdvanceTheEpochIsRefused(t *testing.T) {
	h, l, a, c := joinedTrio(t)
	id := l.view.ID
	stale := core.NewView(core.ViewID{Seq: id.Seq, Coord: c}, "test", []core.EndpointID{a, h.Self(), c})
	h.InjectUp(&core.Event{Type: core.USend, Msg: announcement(stale, id), Source: c})
	if l.view.ID != id || l.epoch != id.Seq {
		t.Fatalf("in %v at epoch %d after a successor numbered %d, want to stay in %v", l.view.ID, l.epoch, stale.ID.Seq, id)
	}
	next := core.NewView(core.ViewID{Seq: id.Seq + 1, Coord: a}, "test", []core.EndpointID{a, h.Self(), c})
	h.InjectUp(&core.Event{Type: core.USend, Msg: announcement(next, id), Source: a})
	if l.view.ID != next.ID {
		t.Fatalf("in %v, want the successor %v", l.view.ID, next.ID)
	}
}

// A view lists its members oldest first, each once: MBRSHIP keeps its
// per-member state at a member's rank and takes the first survivor as
// coordinator. An announced view whose list is out of that order, or
// names a member twice, is garbled; it is dropped and counted in
// StaleDropped, and the member stays in the view it had.
func TestViewNotOldestFirstIsDropped(t *testing.T) {
	for _, tc := range []struct {
		name    string
		members func(a, self, c core.EndpointID) []core.EndpointID
		install bool
	}{
		{"a member twice", func(a, self, c core.EndpointID) []core.EndpointID { return []core.EndpointID{a, self, c, c} }, false},
		{"a swapped pair", func(a, self, c core.EndpointID) []core.EndpointID { return []core.EndpointID{self, a, c} }, false},
		{"oldest first", func(a, self, c core.EndpointID) []core.EndpointID { return []core.EndpointID{a, self, c} }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := layertest.New(t, NewWith(WithGossipPeriod(0), WithFlushTimeout(0)))
			h.Run(time.Millisecond) // the initial singleton view
			l := h.G.Focus("MBRSHIP").(*Mbrship)
			a, c := layertest.ID("a", 0), layertest.ID("c", 1<<40)
			was, dropped := l.view.ID, l.stats.StaleDropped
			// Built by hand: core.NewView would put the list in order.
			v := &core.View{ID: core.ViewID{Seq: was.Seq + 1, Coord: a}, Group: "test", Members: tc.members(a, h.Self(), c)}
			h.InjectUp(&core.Event{Type: core.USend, Msg: announcement(v, was), Source: a})
			if installed := l.view.ID == v.ID; installed != tc.install {
				t.Fatalf("%v announced: installed %v, want %v", v.Members, installed, tc.install)
			}
			if got, want := l.stats.StaleDropped-dropped, map[bool]int{true: 0, false: 1}[tc.install]; got != want {
				t.Errorf("StaleDropped rose by %d, want %d", got, want)
			}
		})
	}
}
