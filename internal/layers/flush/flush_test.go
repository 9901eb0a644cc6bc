package flush_test

import (
	"fmt"
	"slices"
	"testing"

	"horus/internal/core"
	"horus/internal/layers/flush"
	"horus/internal/layers/stable"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/vslog"
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

// The flush exchange's DONE, which carries the forwards.
const kDone = 3

// data builds a cast from src as the stability layer below delivers it:
// named by the MsgID it attaches.
func data(body string, src core.EndpointID, seq uint64) *core.Event {
	return &core.Event{Type: core.UCast, Msg: message.New([]byte(body)),
		Source: src, ID: core.MsgID{Origin: src, Seq: seq}}
}

// doneWith builds a DONE sent under the failure set failed that
// forwards the entries of log.
func doneWith(log *vslog.Log, failed ...core.EndpointID) *message.Message {
	m := message.New(nil)
	vslog.PushBatch(m, log)
	wire.PushIDList(m, failed)
	m.PushUint8(kDone)
	return m
}

// fwd builds a DONE, sent under no failure, that forwards one cast.
func fwd(origin core.EndpointID, seq uint64, inner *message.Message) *message.Message {
	var log vslog.Log
	log.Add(origin, seq, inner)
	return doneWith(&log)
}

// done builds a DONE sent under the failure set failed that forwards
// nothing.
func done(failed ...core.EndpointID) *message.Message { return doneWith(&vslog.Log{}, failed...) }

// forwards reads the DONEs among sends, as they went down, and returns
// the casts they forward, as "origin/seq image", and how many there
// are.
func forwards(t *testing.T, sends []*core.Event) (fwds []string, dones int) {
	t.Helper()
	for _, ev := range sends {
		msg := ev.Msg.Clone()
		if msg.PopUint8() != kDone {
			continue
		}
		dones++
		wire.PopIDList(msg)
		batch, ok := vslog.PopBatch(msg)
		if !ok {
			t.Fatal("a DONE's batch does not read")
		}
		batch.Each(nil, func(origin core.EndpointID, seq uint64, image []byte) {
			fwds = append(fwds, fmt.Sprintf("%v/%d %x", origin, seq, image))
		})
	}
	return fwds, dones
}

// FLUSH names a cast by the MsgID the stability layer below attaches:
// it delivers each once, pushes nothing on a cast of its own, and
// reports a cast with no name.
func TestDeliversOnceAndPushesNothing(t *testing.T) {
	h, p1, _ := setup(t)
	h.InjectUp(data("m", p1, 1))
	h.InjectUp(data("m", p1, 1))
	if got := h.UpOfType(core.UCast); len(got) != 1 {
		t.Fatalf("delivered %d, want 1 (dedup)", len(got))
	}
	h.InjectDown(core.NewCast(message.New([]byte("mine"))))
	if got := h.LastDown(); got == nil || string(got.Msg.Marshal()) != string(message.New([]byte("mine")).Marshal()) {
		t.Fatalf("cast went down as %v, want it as cast", got)
	}
	h.InjectUp(&core.Event{Type: core.UCast, Msg: message.New([]byte("anon")), Source: p1})
	if got := h.UpOfType(core.USystemError); len(got) != 1 {
		t.Fatal("no SYSTEM_ERROR for a cast without an identity")
	}
}

func TestFlushRedistributesLogAndConsentsAfterAllDone(t *testing.T) {
	h, p1, p2 := setup(t)
	// Two deliveries go into the log.
	h.InjectUp(data("a", p1, 1))
	h.InjectUp(data("b", p1, 2))

	// BMS reports a flush removing p2.
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: []core.EndpointID{p2}}})
	// Our done, carrying the fwds, went to the survivor p1.
	for _, ev := range h.DownOfType(core.DSend) {
		if len(ev.Dests) != 1 || ev.Dests[0] != p1 {
			t.Fatalf("redistribution sent to %v, want [p1]", ev.Dests)
		}
	}
	if fwds, dones := forwards(t, h.DownOfType(core.DSend)); len(fwds) != 2 || dones != 1 {
		t.Fatalf("fwds=%d dones=%d, want 2/1", len(fwds), dones)
	}
	// No consent until p1's done arrives.
	if got := h.DownOfType(core.DFlushOK); len(got) != 0 {
		t.Fatal("consented before every survivor finished")
	}
	h.InjectUp(&core.Event{Type: core.USend, Msg: done(p2), Source: p1})
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
	h.InjectUp(data("direct", p2, 2))
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
	h.InjectUp(data("a", p1, 1))
	h.InjectUp(data("b", p1, 2))
	// Everyone has 1 from p1; 2 is still unstable.
	members := []core.EndpointID{h.Self(), p1, p2}
	m := core.NewStabilityMatrix(members)
	for j := range members {
		m.Raise(slices.Index(members, p1), j, 1)
	}
	h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: m}})
	h.Reset()
	// Flush: only the unstable message (seq 2) is redistributed.
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: nil}})
	// One DONE, addressed to all survivors, forwarding exactly the
	// still-unstable seq 2.
	sends := h.DownOfType(core.DSend)
	fwds, _ := forwards(t, sends)
	if want := fmt.Sprintf("%v/2 %x", p1, message.New([]byte("b")).Marshal()); len(fwds) != 1 || fwds[0] != want {
		t.Fatalf("fwds = %v, want [%s] (the stable entry must be trimmed)", fwds, want)
	}
	if len(sends) != 1 || len(sends[0].Dests) != 2 {
		t.Fatalf("fwd sends = %v, want one to both survivors", sends)
	}
}

func TestViewChangeResetsFlushState(t *testing.T) {
	h, p1, _ := setup(t)
	h.InjectUp(data("x", p1, 1))
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: nil}})
	v := core.NewView(core.ViewID{Seq: 2, Coord: h.Self()}, "test",
		[]core.EndpointID{h.Self(), p1})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v}})
	h.Reset()
	// After the view, the old log is gone: a new flush redistributes
	// nothing.
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: nil}})
	if fwds, _ := forwards(t, h.DownOfType(core.DSend)); len(fwds) != 0 {
		t.Fatalf("old-view log redistributed after reset: %v", fwds)
	}
}

// ownDone returns, as it would arrive, the DONE this member sent in its
// latest flush. A survivor flushing under the same failure set sends the
// same bytes, so a test can play it as that survivor's DONE without
// spelling out its format.
func ownDone(t *testing.T, h *layertest.Harness) *message.Message {
	t.Helper()
	var last *core.Event
	for _, ev := range h.DownOfType(core.DSend) {
		if ev.Msg.Clone().PopUint8() == kDone {
			last = ev
		}
	}
	if last == nil {
		t.Fatal("no DONE sent")
	}
	m, err := message.Unmarshal(last.Msg.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A DONE counts toward the flush it was sent in, not toward a restart
// that counts more members as failed: the survivor that sent it may
// since have delivered casts the failed member handed to it alone. Once
// the wider flush reaches that survivor it forwards them, and only the
// DONE that follows them lets this member consent.
func TestDoneBeforeARestartDoesNotCountTowardIt(t *testing.T) {
	h, p1, p2 := setup(t)
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{}})
	h.InjectUp(&core.Event{Type: core.USend, Msg: ownDone(t, h), Source: p1})
	h.Reset()
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: []core.EndpointID{p2}}})
	if got := h.DownOfType(core.DFlushOK); len(got) != 0 {
		t.Fatal("consented to the restart on p1's DONE from before it")
	}
	h.InjectUp(&core.Event{Type: core.USend, Msg: fwd(p2, 1, message.New([]byte("p1 alone had it"))), Source: p1})
	h.InjectUp(&core.Event{Type: core.USend, Msg: ownDone(t, h), Source: p1})
	if got := h.DownOfType(core.DFlushOK); len(got) != 1 {
		t.Fatalf("%d consents after p1's DONE for the restart, want 1", len(got))
	}
	if got := h.UpOfType(core.UCast); len(got) != 1 || string(got[0].Msg.Body()) != "p1 alone had it" {
		t.Fatalf("delivered %v, want the cast p1 forwarded after the restart", got)
	}
}

// Members need not see the same restarts: a survivor that counted p2 as
// failed from its first flush sends one DONE, naming p2, and it counts
// toward this member's flush once this member counts p2 as failed too.
func TestDoneUnderAWiderFailureSetCounts(t *testing.T) {
	h, p1, p2 := setup(t)
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{}})
	h.InjectUp(&core.Event{Type: core.USend, Msg: done(p2), Source: p1})
	if got := h.DownOfType(core.DFlushOK); len(got) != 0 {
		t.Fatal("consented while p2, a survivor here, owes a DONE")
	}
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: []core.EndpointID{p2}}})
	if got := h.DownOfType(core.DFlushOK); len(got) != 1 {
		t.Fatalf("%d consents once p2 is failed here too, want 1", len(got))
	}
}

// A forward can overtake the cast it carries — NAK repairs a member's
// unicast stream apart from its cast stream — and then the original is
// dropped as a duplicate. The forward is delivered with the cast's
// MsgID, so an application that acks what it is given acks the cast,
// and STABLE's count for its origin passes it.
func TestForwardOvertakingItsCastIsAcked(t *testing.T) {
	h := layertest.New(t, flush.New, stable.New)
	a, b := layertest.ID("a", 2), layertest.ID("b", 3)
	h.InstallView(h.Self(), a, b)
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{}})
	h.Reset()

	forward := fwd(a, 1, message.New([]byte("a1")))
	forward.PushUint8(2) // STABLE's kSend
	h.InjectUp(&core.Event{Type: core.USend, Msg: forward, Source: b})
	original := message.New([]byte("a1"))
	original.PushUint(1)
	original.PushUint8(1) // STABLE's kData
	h.InjectUp(&core.Event{Type: core.UCast, Msg: original, Source: a})

	got := h.UpOfType(core.UCast)
	if len(got) != 1 {
		t.Fatalf("delivered %d casts, want a1 once", len(got))
	}
	h.InjectDown(&core.Event{Type: core.DAck, ID: got[0].ID})
	m := h.G.Focus("STABLE").(*stable.Stable).Matrix()
	if n := m.Acked[slices.Index(m.Members, a)][slices.Index(m.Members, h.Self())]; n != 1 {
		t.Fatalf("STABLE counts %d of a's casts acked here, want 1", n)
	}
}
