package mbrship

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/vslog"
	"horus/internal/wire"
)

// emptyFlush is Table 1's flush downcall with nobody failed: the layer
// above (SWITCH) asking for a view edge.
func emptyFlush() *core.Event { return &core.Event{Type: core.DFlush, Detail: &core.Detail{}} }

// A flush downcall that names nobody starts a flush round only at an
// idle coordinator. Elsewhere it starts nothing: a member that is not
// the coordinator reports no suspicion, and a coordinator already
// flushing or asking to merge keeps the round or request it has.
func TestEmptyFlushStartsARoundOnlyAtAnIdleCoordinator(t *testing.T) {
	t.Run("coordinator", func(t *testing.T) {
		h := layertest.New(t, NewWith(WithGossipPeriod(0), WithFlushTimeout(0)))
		h.Run(time.Millisecond) // the initial singleton view
		l := h.G.Focus("MBRSHIP").(*Mbrship)
		c := layertest.ID("c", 1<<40)
		v := core.NewView(core.ViewID{Seq: l.view.ID.Seq + 1, Coord: c}, "test", []core.EndpointID{h.Self(), c})
		h.InjectUp(&core.Event{Type: core.USend, Msg: announcement(v, l.view.ID), Source: c})
		h.Reset()
		h.InjectDown(emptyFlush())
		if fl := h.UpOfType(core.UFlush); len(fl) != 1 || len(fl[0].Failed) != 0 {
			t.Fatalf("FLUSH upcalls = %v, want one round with nobody failed", fl)
		}
		if sends := h.DownOfType(core.DSend); len(sends) != 1 || sends[0].Dests[0] != c {
			t.Fatalf("sends = %v, want the FLUSH to the other member", sends)
		}
		h.InjectDown(emptyFlush())
		if l.stats.FlushRounds != 1 {
			t.Fatalf("flush rounds = %d after a second request mid-flush, want 1", l.stats.FlushRounds)
		}
	})
	t.Run("merging coordinator", func(t *testing.T) {
		h := layertest.New(t, NewWith(WithGossipPeriod(0), WithFlushTimeout(0)))
		h.Run(time.Millisecond)
		l := h.G.Focus("MBRSHIP").(*Mbrship)
		h.InjectDown(&core.Event{Type: core.DMerge, Detail: &core.Detail{Contact: layertest.ID("c", 1<<40)}})
		h.Reset()
		h.InjectDown(emptyFlush())
		if l.stats.FlushRounds != 0 || len(h.UpOfType(core.UFlush)) != 0 {
			t.Fatal("an empty flush started a round while a merge request was out")
		}
	})
	t.Run("member", func(t *testing.T) {
		h, l, _, _ := joinedTrio(t)
		h.InjectDown(emptyFlush())
		if l.stats.FlushRounds != 0 || len(h.UpOfType(core.UFlush)) != 0 || len(h.Bot.DownEvents) != 0 {
			t.Fatalf("a member that is not the coordinator acted on an empty flush: %v", h.Bot.DownEvents)
		}
	})
}

// A coordinator rebroadcasts its log as it stands when the last consent
// arrives: a gossip that comes in while the round runs and proves casts
// stable trims them from the rebroadcast too, and what is left goes out
// origins oldest first, each origin's casts in ascending order.
func TestRebroadcastSendsOnlyWhatIsStillUnstable(t *testing.T) {
	h := layertest.New(t, NewWith(WithGossipPeriod(0), WithFlushTimeout(0)))
	h.Run(time.Millisecond) // the initial singleton view
	l := h.G.Focus("MBRSHIP").(*Mbrship)
	self, b, c := h.Self(), layertest.ID("b", 1<<40), layertest.ID("c", 1<<41)
	v := core.NewView(core.ViewID{Seq: l.view.ID.Seq + 1, Coord: self}, "test", []core.EndpointID{self, b, c})
	h.InjectUp(&core.Event{Type: core.USend, Msg: announcement(v, l.view.ID), Source: b})
	if l.view.ID != v.ID || l.coordinator() != self {
		t.Fatalf("view %v, coordinator %v: want %v coordinated here", l.view.ID, l.coordinator(), v.ID)
	}
	h.InjectDown(core.NewCast(message.New([]byte("own"))))
	for seq := uint64(1); seq <= 3; seq++ {
		castIn(h, l, b, seq)
	}
	castIn(h, l, c, 1)
	castIn(h, l, c, 2)
	l.gossip()                              // our own counts: self 1, b 3, c 2
	gossipIn(h, c, v.ID.Seq, self, 0, 2, 1) // c's, before it is suspected

	h.InjectUp(&core.Event{Type: core.UProblem, Source: c})
	if l.flushCoord != self || l.okFrom == nil {
		t.Fatal("no flush round started at the coordinator")
	}
	gossipIn(h, b, v.ID.Seq, self, 1, 3, 2) // b's, mid-round: b's 1-2 and c's 1 are stable now
	h.Reset()
	consent := message.New(nil)
	consent.PushUint(l.flushRound)
	consent.PushUint8(kFlushOK)
	h.InjectUp(&core.Event{Type: core.USend, Msg: consent, Source: b})

	var got []string
	for _, ev := range h.DownOfType(core.DSend) {
		msg := ev.Msg.Clone()
		if msg.PopUint8() != kFwd {
			continue
		}
		msg.PopUint() // round
		wire.PopViewID(msg, nil, h.Net)
		batch, ok := vslog.PopBatch(msg, nil, h.Net)
		if !ok {
			t.Fatal("the rebroadcast's batch does not read")
		}
		batch.Each(func(origin core.EndpointID, seq uint64, _ []byte) {
			got = append(got, fmt.Sprintf("%s/%d to %v", origin.Site, seq, ev.Dests))
		})
	}
	want := []string{
		fmt.Sprintf("%s/1 to [%v]", self.Site, b),
		fmt.Sprintf("b/3 to [%v]", b),
		fmt.Sprintf("c/2 to [%v]", b),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rebroadcast %v, want %v", got, want)
	}
	if l.view.ID == v.ID {
		t.Fatal("the flush did not install a successor")
	}
}

// A batch of forwards that does not read is dropped whole and counted,
// by bounds checks and not by the endpoint's recover: a member stashes
// none of it. A batch that reads is stashed, whole.
func TestGarbledForwardsAreDroppedWhole(t *testing.T) {
	entry := func(b []byte, site string, seq uint64, image []byte) []byte {
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, uint64(len(site)))
		b = append(b, site...)
		b = binary.AppendUvarint(b, seq)
		b = binary.AppendUvarint(b, uint64(len(image)))
		return append(b, image...)
	}
	img := message.New([]byte("cast")).Marshal()
	two := entry(entry(nil, "a", 1, img), "a", 2, img)
	for _, tc := range []struct {
		name  string
		count uint64
		body  []byte
		reads bool
	}{
		{"a batch that reads", 2, two, true},
		{"a truncated batch", 2, two[:len(two)-1], false},
		{"a count beyond the entries present", 3, two, false},
		{"an image length past the end", 1, append(entry(nil, "a", 1, nil)[:4], 100, 0, 'x'), false},
		{"trailing bytes", 2, append(append([]byte(nil), two...), 0), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, l, a, _ := joinedTrio(t)
			m := message.New(tc.body)
			m.PushUint(tc.count)
			wire.PushViewID(m, l.view.ID, nil)
			m.PushUint(1) // round
			m.PushUint8(kFwd)
			h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: a})
			refused, stashed := 1, 0
			if tc.reads {
				refused, stashed = 0, 2
			}
			if l.stats.Malformed != refused || h.EP.Malformed() != 0 || l.stashSize != stashed {
				t.Errorf("%d batches refused, %d packets recovered as malformed, %d entries stashed; want %d, 0 and %d",
					l.stats.Malformed, h.EP.Malformed(), l.stashSize, refused, stashed)
			}
		})
	}
}
