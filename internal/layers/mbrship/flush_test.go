package mbrship

import (
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layertest"
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
