package switchp_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/compress"
	"horus/internal/layers/switchp"
	"horus/internal/layers/total"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/property"
	"horus/internal/wire"
)

// Wire kinds at the SWITCH level, mirrored from the implementation
// (these are wire constants; a change is a protocol change).
const (
	wData     = 1
	wPropose  = 3
	wQuiesced = 4
	wRequest  = 5
	wEpoch    = 6
)

func resolver(name string) (core.Factory, bool) {
	switch name {
	case "TOTAL":
		return total.New, true
	case "COMPRESS":
		return compress.New, true
	}
	return nil, false
}

func setup(t *testing.T) (*layertest.Harness, *switchp.Switch) {
	t.Helper()
	// The harness fakes the VS base with capture layers, so declare
	// what a real MBRSHIP:…:COM base would offer beneath the fence.
	h := layertest.New(t, switchp.NewWith(
		switchp.WithResolver(resolver),
		switchp.WithOpaqueBase(property.SegmentBase),
	))
	sw := h.G.Stack().Focus("SWITCH").(*switchp.Switch)
	return h, sw
}

// markerEv builds a QUIESCED marker as src would cast it for the
// proposal of epoch made in view v; a non-empty refusal makes it a
// refusal.
func markerEv(epoch uint64, v core.ViewID, refusal string, src core.EndpointID) *core.Event {
	m := message.New(nil)
	m.PushString(refusal)
	wire.PushViewID(m, v)
	m.PushUint(epoch)
	m.PushUint8(wQuiesced)
	return &core.Event{Type: core.UCast, Msg: m, Source: src}
}

func proposeEv(epoch uint64, desc string, v *core.View, src core.EndpointID) *core.Event {
	m := message.New(nil)
	wire.PushViewID(m, v.ID)
	m.PushString(desc)
	m.PushUint(epoch)
	m.PushUint8(wPropose)
	return &core.Event{Type: core.UCast, Msg: m, Source: src}
}

// epochEv is src's epoch announcement, which every member casts after
// each view it installs.
func epochEv(epoch uint64, desc string, src core.EndpointID) *core.Event {
	m := message.New(nil)
	m.PushString(desc)
	m.PushUint(epoch)
	m.PushUint8(wEpoch)
	return &core.Event{Type: core.UCast, Msg: m, Source: src}
}

func viewEv(seq uint64, members ...core.EndpointID) *core.Event {
	v := core.NewView(core.ViewID{Seq: seq, Coord: members[0]}, "test", members)
	return &core.Event{Type: core.UView, Detail: &core.Detail{View: v, Primary: true}}
}

// popKind destructively reads the SWITCH-level kind of a captured
// downward cast.
func popKind(ev *core.Event) uint8 { return ev.Msg.PopUint8() }

// castKinds pops the SWITCH-level kind of every captured downward cast.
func castKinds(h *layertest.Harness) []uint8 {
	var kinds []uint8
	for _, ev := range h.DownOfType(core.DCast) {
		kinds = append(kinds, popKind(ev))
	}
	return kinds
}

// dataCasts returns the captured downward casts of kind data, with the
// kind popped.
func dataCasts(h *layertest.Harness) []*core.Event {
	var out []*core.Event
	for _, ev := range h.DownOfType(core.DCast) {
		if popKind(ev) == wData {
			out = append(out, ev)
		}
	}
	return out
}

// commitTotal switches the empty segment to TOTAL at epoch 1 in view v,
// the way TestFullCommitFlow does from a member's seat: the peer's
// PROPOSE, then both markers. It clears what the harness recorded.
func commitTotal(t *testing.T, h *layertest.Harness, sw *switchp.Switch, v *core.View, peer core.EndpointID) {
	t.Helper()
	h.InjectUp(proposeEv(1, "TOTAL", v, peer))
	h.InjectUp(markerEv(1, v.ID, "", h.Self()))
	h.InjectUp(markerEv(1, v.ID, "", peer))
	if sw.Epoch() != 1 || sw.Desc() != "TOTAL" {
		t.Fatalf("setup: epoch=%d desc=%q, want 1 TOTAL", sw.Epoch(), sw.Desc())
	}
	h.Reset()
}

func TestRequestValidation(t *testing.T) {
	h, sw := setup(t)
	do := func(target string) error {
		var err error
		h.EP.Do(func() { err = sw.RequestSwitch(target) })
		return err
	}
	if err := do("TOTAL"); err == nil || !strings.Contains(err.Error(), "no view") {
		t.Fatalf("switch without a view: err=%v", err)
	}
	h.InstallView(h.Self(), layertest.ID("p", 2))
	if err := do("TOTAL:COM"); err == nil || !strings.Contains(err.Error(), "requires") {
		t.Fatalf("ill-formed target not rejected by the property calculus: err=%v", err)
	}
	if err := do("NOPE"); err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("unknown layer not rejected: err=%v", err)
	}
	if err := do(""); err != nil {
		t.Fatalf("no-op switch to the current (empty) segment: err=%v", err)
	}
}

func TestNonCoordinatorForwardsRequest(t *testing.T) {
	h, sw := setup(t)
	older := layertest.ID("0older", 0) // lower birth: the coordinator
	h.InstallView(h.Self(), older)
	h.Reset()
	var err error
	h.EP.Do(func() { err = sw.RequestSwitch("TOTAL") })
	if err != nil {
		t.Fatal(err)
	}
	sends := h.DownOfType(core.DSend)
	if len(sends) != 1 || sends[0].Dests[0] != older {
		t.Fatalf("request not forwarded to the coordinator: %v", sends)
	}
	if k := popKind(sends[0]); k != wRequest {
		t.Fatalf("forwarded kind = %d, want request", k)
	}
	if got := sends[0].Msg.PopString(); got != "TOTAL" {
		t.Fatalf("forwarded target = %q", got)
	}
}

// TestFullCommitFlow drives the two rounds from the coordinator's
// seat, emulating the peer's (and VS loopback's) control casts by
// injection: PROPOSE and the coordinator's own marker go out, and the
// peer's marker commits.
func TestFullCommitFlow(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	v := h.InstallView(h.Self(), peer) // self (birth 1) is oldest: coordinator
	h.InjectUp(epochEv(0, "", peer))
	h.Reset()

	var err error
	h.EP.Do(func() { err = sw.RequestSwitch("TOTAL") })
	if err != nil {
		t.Fatal(err)
	}
	// The coordinator casts PROPOSE then, with an empty (trivially
	// quiescent) segment, its own QUIESCED marker naming the view.
	casts := h.DownOfType(core.DCast)
	if len(casts) != 2 {
		t.Fatalf("casts after propose = %d, want PROPOSE+QUIESCED", len(casts))
	}
	if k := popKind(casts[0]); k != wPropose {
		t.Fatalf("first cast kind = %d, want propose", k)
	}
	if k := popKind(casts[1]); k != wQuiesced {
		t.Fatalf("second cast kind = %d, want quiesced", k)
	}
	if e, id := casts[1].Msg.PopUint(), wire.PopViewID(casts[1].Msg); e != 1 || id != v.ID {
		t.Fatalf("marker names epoch %d view %v, want 1 %v", e, id, v.ID)
	}

	// The gate is closed: an application cast buffers above the segment.
	h.InjectDown(core.NewCast(message.New([]byte("fenced"))))
	if got := h.DownOfType(core.DCast); len(got) != 2 {
		t.Fatal("application cast leaked through a closed gate")
	}

	// The own marker's loopback alone does not commit; the peer's does.
	h.InjectUp(markerEv(1, v.ID, "", h.Self()))
	if !sw.Switching() {
		t.Fatal("committed before the peer's marker arrived")
	}
	h.InjectUp(markerEv(1, v.ID, "", peer))
	sws := h.UpOfType(core.USwitch)
	if len(sws) != 1 || sws[0].Epoch != 1 || sws[0].Reason != "committed TOTAL" {
		t.Fatalf("SWITCH upcall = %v", sws)
	}
	if sw.Epoch() != 1 || sw.Desc() != "TOTAL" {
		t.Fatalf("epoch=%d desc=%q after commit", sw.Epoch(), sw.Desc())
	}
	if names := h.G.Stack().Names(); !strings.Contains(names, "SWITCH[TOTAL]") {
		t.Fatalf("stack names = %q, segment not visible", names)
	}
	if h.G.Stack().Focus("TOTAL") == nil {
		t.Fatal("Focus cannot see into the managed segment")
	}

	// The fenced cast resumed through the NEW segment: epoch-1 stamp
	// over a TOTAL header (self is rank 0, so it holds the token and
	// stamps immediately).
	casts = h.DownOfType(core.DCast)
	if len(casts) != 3 {
		t.Fatalf("gated cast not released (casts=%d)", len(casts))
	}
	rel := casts[2]
	if k := popKind(rel); k != wData {
		t.Fatalf("released kind = %d, want data", k)
	}
	if e := rel.Msg.PopUint(); e != 1 {
		t.Fatalf("released epoch = %d, want 1", e)
	}
	if k := rel.Msg.PopUint8(); k != 1 { // TOTAL's own kData
		t.Fatalf("released cast lacks the TOTAL header (kind %d)", k)
	}
	rel.Msg.PopUint() // TOTAL's ord
	if string(rel.Msg.Body()) != "fenced" {
		t.Fatalf("released body = %q", rel.Msg.Body())
	}
	if st := sw.Stats(); st.Committed != 1 || st.Aborted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAbortOnViewChange pins the rollback edge: a view change while a
// proposal is pending without every marker in aborts it, and the gated
// traffic resumes through the untouched old segment.
func TestAbortOnViewChange(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	v := h.InstallView(h.Self(), peer)
	h.Reset()

	// A peer-coordinated proposal arrives; the gate closes.
	h.InjectUp(proposeEv(1, "TOTAL", v, peer))
	if !sw.Switching() {
		t.Fatal("proposal not pending")
	}
	h.InjectDown(core.NewCast(message.New([]byte("held"))))

	// The view changes mid-handshake (e.g. a partition): abort.
	h.InjectUp(viewEv(2, h.Self()))
	h.Run(0) // the abort's gate release rides a same-instant timer

	sws := h.UpOfType(core.USwitch)
	if len(sws) != 1 || !strings.HasPrefix(sws[0].Reason, "aborted") {
		t.Fatalf("SWITCH upcall = %v, want abort", sws)
	}
	if sw.Epoch() != 0 || sw.Desc() != "" || sw.Switching() {
		t.Fatalf("rollback left epoch=%d desc=%q switching=%v", sw.Epoch(), sw.Desc(), sw.Switching())
	}
	// The held cast resumed through the OLD (empty) segment at epoch 0.
	rel := dataCasts(h)
	if len(rel) != 1 {
		t.Fatalf("held cast released %d times on abort, want once", len(rel))
	}
	if e := rel[0].Msg.PopUint(); e != 0 {
		t.Fatalf("released epoch = %d, want 0 (old segment)", e)
	}
	if string(rel[0].Msg.Body()) != "held" {
		t.Fatalf("released body = %q (old empty segment adds no headers)", rel[0].Msg.Body())
	}
}

// TestViewEdgeDecides pins where a switch ends when a marker is
// missing: nowhere until the view changes. A silent peer leaves the
// proposal pending, the gate shut and nothing re-cast however long it
// lasts; the next view commits it if every marker is in and aborts it
// if not — the same decision at every member sharing that edge.
func TestViewEdgeDecides(t *testing.T) {
	t.Run("silent peer", func(t *testing.T) {
		h, sw := setup(t)
		peer := layertest.ID("p", 2)
		v := h.InstallView(h.Self(), peer)
		h.Reset()
		h.EP.Do(func() {
			if err := sw.RequestSwitch("TOTAL"); err != nil {
				t.Error(err)
			}
		})
		h.InjectUp(markerEv(1, v.ID, "", h.Self()))
		h.InjectDown(core.NewCast(message.New([]byte("held"))))
		h.Run(5 * time.Second)

		kinds := castKinds(h)
		if len(kinds) != 2 || kinds[0] != wPropose || kinds[1] != wQuiesced {
			t.Fatalf("casts over 5 s = %v, want one PROPOSE and one QUIESCED", kinds)
		}
		if !sw.Switching() || len(h.UpOfType(core.USwitch)) != 0 {
			t.Fatal("proposal decided without a view change")
		}

		h.Reset()
		h.InjectUp(viewEv(2, h.Self()))
		h.Run(0)
		sws := h.UpOfType(core.USwitch)
		if len(sws) != 1 || sws[0].Reason != "aborted: view change during switch" {
			t.Fatalf("SWITCH upcall = %v, want view-change abort", sws)
		}
		if st := sw.Stats(); st.Aborted != 1 || st.Committed != 0 || sw.Switching() || sw.Epoch() != 0 {
			t.Fatalf("abort did not roll back cleanly: %+v", st)
		}
		if rel := dataCasts(h); len(rel) != 1 || rel[0].Msg.PopUint() != 0 {
			t.Fatal("held cast not released through the old segment")
		}
	})
	t.Run("every marker in", func(t *testing.T) {
		h, sw := setup(t)
		peer := layertest.ID("p", 2)
		v := h.InstallView(h.Self(), peer)
		commitTotal(t, h, sw, v, peer)
		// The old TOTAL holds stamp 2 without stamp 1, so it is not
		// up-quiescent and the last marker alone cannot commit.
		m := message.New([]byte("early"))
		m.PushUint(2)  // TOTAL ord
		m.PushUint8(1) // TOTAL kData
		m.PushUint(1)
		m.PushUint8(wData)
		h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
		h.InjectUp(proposeEv(2, "", v, peer))
		h.InjectUp(markerEv(2, v.ID, "", h.Self()))
		h.InjectUp(markerEv(2, v.ID, "", peer))
		if !sw.Switching() {
			t.Fatal("committed while the segment was not up-quiescent")
		}
		h.Reset()
		h.InjectUp(viewEv(2, h.Self(), peer))
		sws := h.UpOfType(core.USwitch)
		if len(sws) != 1 || sws[0].Reason != "committed" || sws[0].Epoch != 2 {
			t.Fatalf("SWITCH upcall = %v, want the edge to commit epoch 2", sws)
		}
		// The fenced cast the old TOTAL still held is delivered in the
		// old view, before the new VIEW, and the view goes up once.
		var order []string
		for _, ev := range h.Top.UpEvents {
			switch ev.Type {
			case core.UCast:
				order = append(order, string(ev.Msg.Body()))
			case core.UView:
				order = append(order, "VIEW")
			}
		}
		if len(order) != 2 || order[0] != "early" || order[1] != "VIEW" {
			t.Fatalf("upcalls across the edge = %v, want [early VIEW]", order)
		}
		if sw.Epoch() != 2 || sw.Desc() != "" || sw.Switching() {
			t.Fatalf("epoch=%d desc=%q switching=%v after the edge", sw.Epoch(), sw.Desc(), sw.Switching())
		}
	})
}

// TestMarkerNamesItsProposal pins that a marker counts only toward a
// proposal made in the view it names: one cast for a proposal of the
// previous view, parked by the membership layer across the flush and
// released into this one, fences nothing here.
func TestMarkerNamesItsProposal(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	prev := h.InstallView(h.Self(), peer)
	h.InjectUp(viewEv(2, h.Self(), peer))
	h.Run(0)
	var err error
	h.EP.Do(func() { err = sw.RequestSwitch("TOTAL") })
	if err != nil {
		t.Fatal(err)
	}
	cur := sw.Segment() // the segment the proposal would retire
	h.InjectUp(markerEv(1, prev.ID, "", peer))
	h.InjectUp(markerEv(1, core.ViewID{Seq: 2, Coord: h.Self()}, "", h.Self()))
	if !sw.Switching() || sw.Segment() != cur {
		t.Fatal("a marker naming the previous view counted toward this view's proposal")
	}
	h.InjectUp(markerEv(1, core.ViewID{Seq: 2, Coord: h.Self()}, "", peer))
	if sw.Switching() || sw.Epoch() != 1 {
		t.Fatal("the peer's marker for this view did not commit")
	}
}

// TestOutOfOrderControlCounts pins what FIFO per sender leaves open:
// a marker may arrive before the PROPOSE it answers, and a PROPOSE for
// the next epoch may arrive before this member has committed the
// current one (the coordinator got its last marker first). Neither is
// lost, and with no retries both must be kept.
func TestOutOfOrderControlCounts(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	v := h.InstallView(h.Self(), peer)
	h.InjectUp(markerEv(1, v.ID, "", peer)) // before its PROPOSE
	h.InjectUp(proposeEv(1, "TOTAL", v, peer))
	h.InjectUp(proposeEv(2, "COMPRESS", v, peer)) // before our commit of 1
	h.InjectUp(markerEv(2, v.ID, "", peer))
	h.InjectUp(markerEv(1, v.ID, "", h.Self()))
	if sw.Epoch() != 1 || !sw.Switching() {
		t.Fatalf("epoch=%d switching=%v: epoch 1 not committed or epoch 2 not taken up", sw.Epoch(), sw.Switching())
	}
	h.InjectUp(markerEv(2, v.ID, "", h.Self()))
	if sw.Epoch() != 2 || sw.Desc() != "COMPRESS" || sw.Switching() {
		t.Fatalf("epoch=%d desc=%q switching=%v, want epoch 2 COMPRESS", sw.Epoch(), sw.Desc(), sw.Switching())
	}
	if st := sw.Stats(); st.Committed != 2 || st.Proposed != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRefusalAborts pins the refusal: a member that cannot build the
// target casts a refusal in place of its marker, and delivering one
// aborts the proposal at once.
func TestRefusalAborts(t *testing.T) {
	t.Run("refuser", func(t *testing.T) {
		h, sw := setup(t)
		peer := layertest.ID("p", 2)
		v := h.InstallView(h.Self(), peer)
		h.Reset()
		h.InjectUp(proposeEv(1, "NOPE", v, peer))
		if sw.Switching() {
			t.Fatal("accepted a target it cannot build")
		}
		casts := h.DownOfType(core.DCast)
		if len(casts) != 1 || popKind(casts[0]) != wQuiesced {
			t.Fatalf("casts = %d, want one refusal marker", len(casts))
		}
		casts[0].Msg.PopUint()
		wire.PopViewID(casts[0].Msg)
		if r := casts[0].Msg.PopString(); !strings.Contains(r, "NOPE") {
			t.Fatalf("refusal = %q", r)
		}
		if len(h.UpOfType(core.USystemError)) != 1 {
			t.Fatal("refusal not surfaced as SYSTEM_ERROR")
		}
	})
	t.Run("member", func(t *testing.T) {
		h, sw := setup(t)
		peer := layertest.ID("p", 2)
		v := h.InstallView(h.Self(), peer)
		h.InjectUp(proposeEv(1, "TOTAL", v, peer))
		h.InjectUp(markerEv(1, v.ID, "p cannot build", peer))
		sws := h.UpOfType(core.USwitch)
		if len(sws) != 1 || sws[0].Reason != "aborted: p cannot build" || sw.Switching() {
			t.Fatalf("SWITCH upcall = %v, want the refusal's abort", sws)
		}
	})
}

// TestFlushCommitHoldsGateUntilView pins a commit inside a membership
// flush: the last marker arrives in the flush's forwarded messages and
// the segment swaps, but no cast enters the fresh segment until the
// next view has passed and the peer's epoch in it is known. The fresh
// segment never saw the FLUSH, so a TOTAL there would stamp a cast the
// membership layer
// parks and releases into the next view, where TOTAL's order numbers
// restart and the stamp collides.
func TestFlushCommitHoldsGateUntilView(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	v := h.InstallView(h.Self(), peer)
	h.InjectUp(epochEv(0, "", peer))
	h.Reset()
	h.EP.Do(func() {
		if err := sw.RequestSwitch("TOTAL"); err != nil {
			t.Error(err)
		}
	})
	h.InjectUp(markerEv(1, v.ID, "", h.Self()))
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{}})
	h.InjectUp(markerEv(1, v.ID, "", peer))
	if sw.Epoch() != 1 || sw.Switching() {
		t.Fatal("the last marker in a flush did not commit")
	}
	h.InjectDown(core.NewCast(message.New([]byte("first"))))
	h.InjectDown(core.NewCast(message.New([]byte("second"))))
	h.Run(0)
	if n := len(dataCasts(h)); n != 0 {
		t.Fatalf("%d casts left through the fresh segment inside the flush", n)
	}

	h.Reset()
	h.InjectUp(viewEv(2, h.Self(), peer))
	h.Run(0)
	if n := len(dataCasts(h)); n != 0 {
		t.Fatalf("%d casts left before the peer's epoch in the new view was known", n)
	}
	h.Reset()
	h.InjectUp(epochEv(1, "TOTAL", peer))
	rel := dataCasts(h)
	if len(rel) != 2 {
		t.Fatalf("casts released after the view = %d, want 2", len(rel))
	}
	for i, want := range []string{"first", "second"} {
		if e := rel[i].Msg.PopUint(); e != 1 {
			t.Fatalf("cast %d left at epoch %d, want 1", i, e)
		}
		rel[i].Msg.PopUint8() // TOTAL's kData
		if ord := rel[i].Msg.PopUint(); ord != uint64(i+1) {
			t.Fatalf("cast %d stamped %d in the new view, want %d", i, ord, i+1)
		}
		if string(rel[i].Msg.Body()) != want {
			t.Fatalf("cast %d body = %q, want %q", i, rel[i].Msg.Body(), want)
		}
	}
}

// TestEpochRouting pins the epoch fence: future-epoch data buffers
// until the local swap, post-merge epoch announcements drive a
// catch-up commit, stale data from a retired empty segment is
// delivered loss-free, and stale data from an unknown retired segment
// surfaces as an explicit LOST_MESSAGE.
func TestEpochRouting(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	h.InstallView(h.Self(), peer)
	h.Reset()

	// A cast from epoch 5 (the sender switched first): TOTAL header
	// under the epoch stamp. Must buffer, not deliver.
	m := message.New([]byte("early"))
	m.PushUint(1)  // TOTAL ord
	m.PushUint8(1) // TOTAL kData
	m.PushUint(5)
	m.PushUint8(wData)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
	if got := h.UpOfType(core.UCast); len(got) != 0 {
		t.Fatal("future-epoch cast delivered early")
	}

	// The epoch announcement arrives (e.g. after a merge): catch up.
	am := message.New(nil)
	am.PushString("TOTAL")
	am.PushUint(5)
	am.PushUint8(wEpoch)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: am, Source: peer})

	sws := h.UpOfType(core.USwitch)
	if len(sws) != 1 || sws[0].Epoch != 5 || sws[0].Reason != "committed TOTAL" {
		t.Fatalf("catch-up SWITCH upcall = %v", sws)
	}
	if sw.Epoch() != 5 || sw.Desc() != "TOTAL" {
		t.Fatalf("epoch=%d desc=%q after catch-up", sw.Epoch(), sw.Desc())
	}
	if st := sw.Stats(); st.SyncCommits != 1 {
		t.Fatalf("stats = %+v, want one sync commit", st)
	}
	// The buffered cast drained through the new TOTAL, in stamp order.
	got := h.UpOfType(core.UCast)
	if len(got) != 1 || string(got[0].Msg.Body()) != "early" || got[0].Epoch != 5 {
		t.Fatalf("buffered cast not delivered after catch-up: %v", got)
	}

	// Stale cast from epoch 3 — we never learned that segment: an
	// explicit loss, never a corrupt delivery.
	h.Reset()
	m3 := message.New([]byte("lost"))
	m3.PushUint(3)
	m3.PushUint8(wData)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m3, Source: peer})
	if got := h.UpOfType(core.UCast); len(got) != 0 {
		t.Fatal("stale unknown-segment cast delivered")
	}
	if lost := h.UpOfType(core.ULostMessage); len(lost) != 1 || lost[0].Source != peer {
		t.Fatalf("stale cast not surfaced as LOST_MESSAGE: %v", lost)
	}

	// Stale cast from epoch 0 — the retired segment was empty, so the
	// payload is bare and deliverable: the loss-free upgrade path.
	h.Reset()
	m0 := message.New([]byte("straggler"))
	m0.PushUint(0)
	m0.PushUint8(wData)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m0, Source: peer})
	got = h.UpOfType(core.UCast)
	if len(got) != 1 || string(got[0].Msg.Body()) != "straggler" || got[0].Epoch != 0 {
		t.Fatalf("empty-segment straggler not delivered directly: %v", got)
	}
}

// TestRetiredSegmentIsInert pins the detach fence: after a swap, the
// old segment's layers cannot leak events into the stack.
func TestRetiredSegmentIsInert(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	v := h.InstallView(h.Self(), peer)
	commitTotal(t, h, sw, v, peer)

	oldTotal := h.G.Stack().Focus("TOTAL").(*total.Total)

	// Commit a switch to the empty segment (remove TOTAL).
	h.InjectUp(proposeEv(2, "", v, peer))
	h.InjectUp(markerEv(2, v.ID, "", h.Self()))
	h.InjectUp(markerEv(2, v.ID, "", peer))
	if sw.Epoch() != 2 || sw.Desc() != "" {
		t.Fatalf("downgrade not committed: epoch=%d desc=%q", sw.Epoch(), sw.Desc())
	}
	if h.G.Stack().Focus("TOTAL") != nil {
		t.Fatal("retired TOTAL still visible via Focus")
	}

	// Poking the retired instance emits nothing into the live stack.
	h.Reset()
	h.EP.Do(func() { oldTotal.Down(core.NewCast(message.New([]byte("zombie")))) })
	if n := len(h.Bot.DownEvents); n != 0 {
		t.Fatalf("retired segment leaked %d events into the stack", n)
	}
	h.Run(2 * time.Second) // any zombie timers fire into the void
	if n := len(h.Bot.DownEvents); n != 0 {
		t.Fatalf("retired segment timer leaked %d events", n)
	}
}

// A member that merged into a view whose other members committed an
// epoch it never reached must not cast before it has caught up: its
// cast would leave through the retired segment, be delivered to itself
// and be dropped as stale by every other member. The gate holds after a
// view until every other member's epoch announcement is in; the
// announcement of a later epoch starts the catch-up, and the held cast
// then leaves through the new segment, stamped with the new epoch.
func TestNoCastBeforeEveryEpochIsKnown(t *testing.T) {
	h, sw := setup(t)
	peer, third := layertest.ID("p", 2), layertest.ID("q", 3)
	h.InstallView(h.Self(), peer, third)
	h.Reset()
	h.InjectDown(core.NewCast(message.New([]byte("held"))))
	h.Run(0)
	h.InjectUp(epochEv(0, "", third))
	if n := len(dataCasts(h)); n != 0 {
		t.Fatalf("%d casts left before the peer's epoch was known", n)
	}
	h.InjectUp(epochEv(1, "TOTAL", peer))
	if sw.Epoch() != 1 || sw.Desc() != "TOTAL" {
		t.Fatalf("epoch=%d desc=%q after the peer announced 1 TOTAL, want a catch-up", sw.Epoch(), sw.Desc())
	}
	rel := dataCasts(h)
	if len(rel) != 1 {
		t.Fatalf("%d casts released after the catch-up, want 1", len(rel))
	}
	if e := rel[0].Msg.PopUint(); e != 1 || string(rel[0].Msg.Body()) != "held" {
		t.Fatalf("released cast %q stamped epoch %d, want %q at 1", rel[0].Msg.Body(), e, "held")
	}
}

// The gate also holds while a membership flush runs and in a view that
// is not primary: the membership layer parks a cast there and releases
// it into the next view, stamped with an epoch that view's members may
// have left behind. The cast waits above the segment instead and leaves
// once the next primary view's epochs are known.
func TestNoCastThroughAFlushOrOutsideThePrimary(t *testing.T) {
	h, _ := setup(t)
	peer := layertest.ID("p", 2)
	h.InstallView(h.Self(), peer)
	h.InjectUp(epochEv(0, "", peer))
	h.Reset()
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{}})
	h.InjectDown(core.NewCast(message.New([]byte("flushing"))))
	minority := viewEv(2, h.Self())
	minority.Primary = false
	h.InjectUp(minority)
	h.Run(0)
	h.InjectDown(core.NewCast(message.New([]byte("minority"))))
	h.Run(0)
	if n := len(dataCasts(h)); n != 0 {
		t.Fatalf("%d casts left during the flush or in the minority view", n)
	}
	h.Reset()
	h.InjectUp(viewEv(3, h.Self(), peer))
	h.Run(0)
	h.InjectUp(epochEv(0, "", peer))
	var got []string
	for _, ev := range dataCasts(h) {
		ev.Msg.PopUint()
		got = append(got, string(ev.Msg.Body()))
	}
	if fmt.Sprint(got) != "[flushing minority]" {
		t.Fatalf("released %v in the primary view, want [flushing minority]", got)
	}
}

// Future-epoch data held when the view changes was cast in the view
// that ended, by a member that committed an epoch this one did not
// reach there. It is reported lost, not delivered: even after this
// member catches up in the next view, delivering it there would cross
// the view's cut.
func TestFutureEpochDataDoesNotCrossAView(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	h.InstallView(h.Self(), peer)
	h.InjectUp(epochEv(0, "", peer))
	m := message.New([]byte("early"))
	m.PushUint(1)  // TOTAL ord
	m.PushUint8(1) // TOTAL kData
	m.PushUint(1)
	m.PushUint8(wData)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
	h.Reset()
	h.InjectUp(viewEv(2, h.Self(), peer))
	if lost := h.UpOfType(core.ULostMessage); len(lost) != 1 || lost[0].Source != peer {
		t.Fatalf("held future-epoch cast at the view edge: LOST_MESSAGE %v, want one from the peer", lost)
	}
	h.InjectUp(epochEv(1, "TOTAL", peer))
	if sw.Epoch() != 1 {
		t.Fatalf("no catch-up: epoch %d", sw.Epoch())
	}
	if got := h.UpOfType(core.UCast); len(got) != 0 {
		t.Fatalf("the previous view's cast was delivered in the next: %v", got)
	}
}
