package mlog_test

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layers/mlog"
	"horus/internal/layertest"
	"horus/internal/message"
)

func TestDeliveriesAndViewsLogged(t *testing.T) {
	store := mlog.NewMemStore()
	h := layertest.New(t, mlog.New(store))
	peer := layertest.ID("p", 2)
	v := core.NewView(core.ViewID{Seq: 1, Coord: peer}, "test", []core.EndpointID{peer, h.Self()})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v}})
	h.InjectUp(&core.Event{Type: core.UCast, Msg: message.New([]byte("one")), Source: peer})
	h.InjectUp(&core.Event{Type: core.UCast, Msg: message.New([]byte("two")), Source: peer})

	entries := store.Entries()
	if len(entries) != 3 {
		t.Fatalf("%d entries, want 3", len(entries))
	}
	if entries[0].Kind != mlog.EntryView || entries[0].View.ID != v.ID {
		t.Errorf("entry 0 = %+v, want the view", entries[0])
	}
	if entries[1].Kind != mlog.EntryCast || string(entries[1].Body) != "one" {
		t.Errorf("entry 1 = %+v", entries[1])
	}
}

func TestReplayRebuildsState(t *testing.T) {
	store := mlog.NewMemStore()
	h := layertest.New(t, mlog.New(store))
	peer := layertest.ID("p", 2)
	for _, s := range []string{"a", "b", "c"} {
		h.InjectUp(&core.Event{Type: core.UCast, Msg: message.New([]byte(s)), Source: peer})
	}

	// Total crash: rebuild application state from the durable log
	// alone.
	var rebuilt []string
	mlog.Replay(store, func(ev *core.Event) {
		if ev.Type == core.UCast {
			rebuilt = append(rebuilt, string(ev.Msg.Body()))
		}
	})
	if len(rebuilt) != 3 || rebuilt[0] != "a" || rebuilt[2] != "c" {
		t.Fatalf("replay = %v, want [a b c]", rebuilt)
	}
}

func TestDeliveryStillPassesUp(t *testing.T) {
	h := layertest.New(t, mlog.New(mlog.NewMemStore()))
	h.InjectUp(&core.Event{Type: core.UCast, Msg: message.New([]byte("x")), Source: layertest.ID("p", 2)})
	if got := h.LastUp(); got == nil || string(got.Msg.Body()) != "x" {
		t.Fatal("MLOG swallowed the delivery")
	}
}

func TestNilStoreFailsInit(t *testing.T) {
	h := layertest.New(t, mlog.New(mlog.NewMemStore()))
	ep := h.Net.NewEndpoint("x")
	if _, err := ep.Join("g", core.StackSpec{mlog.New(nil)}, nil); err == nil {
		t.Fatal("nil store accepted")
	}
}
