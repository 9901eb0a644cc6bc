package flush_test

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layers/flush"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/wire"
)

func setup(t *testing.T) (*layertest.Harness, core.EndpointID, core.EndpointID) {
	t.Helper()
	h := layertest.New(t, flush.New)
	p1 := layertest.ID("p1", 2)
	p2 := layertest.ID("p2", 3)
	h.InstallView(h.Self(), p1, p2)
	h.Reset()
	return h, p1, p2
}

// data builds a stamped FLUSH-layer multicast as a peer would send it.
func data(body string, seq uint64) *message.Message {
	m := message.New([]byte(body))
	m.PushUint(seq)
	m.PushUint8(1) // kData
	return m
}

// fwd builds a redistribution message.
func fwd(origin core.EndpointID, seq uint64, inner *message.Message) *message.Message {
	m := message.New(inner.Marshal())
	m.PushUint(seq)
	wire.PushEndpointID(m, origin)
	m.PushUint8(3) // kFwd
	return m
}

// done builds a completion marker.
func done(gen uint64) *message.Message {
	m := message.New(nil)
	m.PushUint(gen)
	m.PushUint8(4) // kDone
	return m
}

func TestStampsAndDeliversOnce(t *testing.T) {
	h, p1, _ := setup(t)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data("m", 1), Source: p1})
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data("m", 1), Source: p1})
	if got := h.UpOfType(core.UCast); len(got) != 1 {
		t.Fatalf("delivered %d, want 1 (dedup)", len(got))
	}
}

func TestFlushRedistributesLogAndConsentsAfterAllDone(t *testing.T) {
	h, p1, p2 := setup(t)
	// Two deliveries go into the log.
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data("a", 1), Source: p1})
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data("b", 2), Source: p1})

	// BMS reports a flush removing p2.
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: []core.EndpointID{p2}}})
	// Our fwds + done went to the survivor p1.
	var fwds, dones int
	for _, ev := range h.DownOfType(core.DSend) {
		kind := ev.Msg.Clone().PopUint8()
		switch kind {
		case 3:
			fwds++
		case 4:
			dones++
		}
		if len(ev.Dests) != 1 || ev.Dests[0] != p1 {
			t.Fatalf("redistribution sent to %v, want [p1]", ev.Dests)
		}
	}
	if fwds != 2 || dones != 1 {
		t.Fatalf("fwds=%d dones=%d, want 2/1", fwds, dones)
	}
	// No consent until p1's done arrives.
	if got := h.DownOfType(core.DFlushOK); len(got) != 0 {
		t.Fatal("consented before every survivor finished")
	}
	h.InjectUp(&core.Event{Type: core.USend, Msg: done(1), Source: p1})
	if got := h.DownOfType(core.DFlushOK); len(got) != 1 {
		t.Fatal("no consent after all survivors done")
	}
	if st := h.G.Focus("FLUSH").(*flush.Flush).Stats(); st.Flushes != 1 || st.FwdsSent != 2 || st.FwdsDelivered != 0 {
		t.Fatalf("Stats %+v, want 1 flush and 2 fwds sent", st)
	}
}

func TestIncomingFwdDeliversMissingMessage(t *testing.T) {
	h, p1, p2 := setup(t)
	// p1 delivered p2's message that we never saw; during the flush it
	// forwards it to us.
	orig := message.New([]byte("rescued"))
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: nil}})
	h.InjectUp(&core.Event{Type: core.USend, Msg: fwd(p2, 1, orig), Source: p1})
	got := h.UpOfType(core.UCast)
	if len(got) != 1 || string(got[0].Msg.Body()) != "rescued" || got[0].Source != p2 {
		t.Fatalf("fwd delivery = %v", got)
	}
	// A duplicate fwd (from another member's redistribution) is dropped.
	h.InjectUp(&core.Event{Type: core.USend, Msg: fwd(p2, 1, orig), Source: p1})
	if got := h.UpOfType(core.UCast); len(got) != 1 {
		t.Fatal("duplicate fwd delivered")
	}
	// And a fwd of something we already delivered directly is dropped.
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data("direct", 2), Source: p2})
	h.InjectUp(&core.Event{Type: core.USend, Msg: fwd(p2, 2, message.New([]byte("direct"))), Source: p1})
	casts := h.UpOfType(core.UCast)
	if len(casts) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(casts))
	}
	if st := h.G.Focus("FLUSH").(*flush.Flush).Stats(); st.FwdsDelivered != 1 || st.Flushes != 1 || st.FwdsSent != 0 {
		t.Fatalf("Stats %+v, want 1 flush and 1 fwd delivered", st)
	}
}

func TestStabilityTrimsLog(t *testing.T) {
	h, p1, p2 := setup(t)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data("a", 1), Source: p1})
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data("b", 2), Source: p1})
	// Everyone has 1 from p1; 2 is still unstable.
	members := []core.EndpointID{h.Self(), p1, p2}
	m := core.NewStabilityMatrix(members)
	for _, mem := range members {
		m.Set(p1, mem, 1)
	}
	h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: m}})
	h.Reset()
	// Flush: only the unstable message (seq 2) is redistributed.
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: nil}})
	// One DSend per unstable log entry, addressed to all survivors:
	// exactly the still-unstable seq 2.
	var fwds []*core.Event
	for _, ev := range h.DownOfType(core.DSend) {
		if ev.Msg.Clone().PopUint8() == 3 {
			fwds = append(fwds, ev)
		}
	}
	if len(fwds) != 1 {
		t.Fatalf("fwd sends = %d, want 1 (the stable entry must be trimmed)", len(fwds))
	}
	if len(fwds[0].Dests) != 2 {
		t.Fatalf("fwd destinations = %v, want both survivors", fwds[0].Dests)
	}
}

func TestViewChangeResetsFlushState(t *testing.T) {
	h, p1, _ := setup(t)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data("x", 1), Source: p1})
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: nil}})
	v := core.NewView(core.ViewID{Seq: 2, Coord: h.Self()}, "test",
		[]core.EndpointID{h.Self(), p1})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v}})
	h.Reset()
	// After the view, the old log is gone: a new flush redistributes
	// nothing.
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: nil}})
	for _, ev := range h.DownOfType(core.DSend) {
		if ev.Msg.Clone().PopUint8() == 3 {
			t.Fatal("old-view log redistributed after reset")
		}
	}
}
