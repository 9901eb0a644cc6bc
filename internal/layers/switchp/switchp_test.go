package switchp_test

import (
	"bytes"
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
	wSendApp  = 2
	wPropose  = 3
	wQuiesced = 4
	wRequest  = 5
	wConfig   = 6
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
// proposal made in view v; a non-empty refusal makes it a refusal.
func markerEv(v core.ViewID, refusal string, src core.EndpointID) *core.Event {
	m := message.New(nil)
	m.PushString(refusal)
	wire.PushViewID(m, v, nil)
	m.PushUint8(wQuiesced)
	return &core.Event{Type: core.UCast, Msg: m, Source: src}
}

func proposeEv(desc string, v core.ViewID, src core.EndpointID) *core.Event {
	m := message.New(nil)
	wire.PushViewID(m, v, nil)
	m.PushString(desc)
	m.PushUint8(wPropose)
	return &core.Event{Type: core.UCast, Msg: m, Source: src}
}

// configEv is the CONFIG the oldest member of view v casts, naming the
// segment v runs.
func configEv(v *core.View, desc string) *core.Event {
	m := message.New(nil)
	m.PushString(desc)
	wire.PushViewID(m, v.ID, nil)
	m.PushUint8(wConfig)
	return &core.Event{Type: core.UCast, Msg: m, Source: v.Oldest()}
}

// viewOf builds view seq over members.
func viewOf(seq uint64, members ...core.EndpointID) *core.View {
	return core.NewView(core.ViewID{Seq: seq, Coord: members[0]}, "test", members)
}

// enter delivers v's VIEW upcall from below, then (unless desc is nil)
// its CONFIG naming *desc.
func enter(h *layertest.Harness, v *core.View, desc *string) {
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v, Primary: true}})
	if desc != nil {
		h.InjectUp(configEv(v, *desc))
	}
}

func seg(desc string) *string { return &desc }

// install installs the first view over members and configures it with
// the empty segment, then clears what the harness recorded.
func install(h *layertest.Harness, members ...core.EndpointID) *core.View {
	v := h.InstallView(members...)
	h.InjectUp(configEv(v, ""))
	h.Reset()
	return v
}

// popKind destructively reads the SWITCH-level kind of a captured
// downward event.
func popKind(ev *core.Event) uint8 { return ev.Msg.PopUint8() }

// castsOfKind returns the captured downward casts of the given kind,
// with the kind popped; the others are left as they are.
func castsOfKind(h *layertest.Harness, kind uint8) []*core.Event {
	var out []*core.Event
	for _, ev := range h.DownOfType(core.DCast) {
		if hdr := ev.Msg.Header(); len(hdr) > 0 && hdr[0] == kind {
			popKind(ev)
			out = append(out, ev)
		}
	}
	return out
}

// flushes counts the flush downcalls the layer issued.
func flushes(h *layertest.Harness) int { return len(h.DownOfType(core.DFlush)) }

// upcalls lists the VIEW, SWITCH and CAST upcalls in the order they
// reached the application.
func upcalls(h *layertest.Harness) []string {
	var order []string
	for _, ev := range h.Top.UpEvents {
		switch ev.Type {
		case core.UCast:
			order = append(order, string(ev.Msg.Body()))
		case core.UView:
			order = append(order, fmt.Sprintf("VIEW %d", ev.View.ID.Seq))
		case core.USwitch:
			order = append(order, ev.Reason)
		}
	}
	return order
}

// commitTotal switches the empty segment to TOTAL from the
// coordinator's seat: the PROPOSE, both markers, the flush downcall,
// and the next view over the same members with its CONFIG. It returns
// that view, with what the harness recorded cleared.
func commitTotal(t *testing.T, h *layertest.Harness, sw *switchp.Switch, v *core.View, peer core.EndpointID) *core.View {
	t.Helper()
	h.InjectUp(proposeEv("TOTAL", v.ID, h.Self()))
	h.InjectUp(markerEv(v.ID, "", h.Self()))
	h.InjectUp(markerEv(v.ID, "", peer))
	next := viewOf(v.ID.Seq+1, v.Members...)
	enter(h, next, seg("TOTAL"))
	if sw.Desc() != "TOTAL" || sw.Switching() {
		t.Fatalf("setup: desc=%q switching=%v, want TOTAL", sw.Desc(), sw.Switching())
	}
	h.Reset()
	return next
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
	v := h.InstallView(h.Self(), layertest.ID("p", 2))
	if err := do("TOTAL"); err == nil || !strings.Contains(err.Error(), "no view") {
		t.Fatalf("switch before the view's CONFIG: err=%v", err)
	}
	h.InjectUp(configEv(v, ""))
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
	install(h, h.Self(), older)
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

// TestFullCommitFlow drives a switch from the coordinator's seat,
// emulating the peer's (and VS loopback's) casts by injection:
// PROPOSE and the coordinator's own marker go out, the peer's marker
// makes the coordinator ask for a flush, and the view the flush
// installs commits the switch through its CONFIG.
func TestFullCommitFlow(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	v := install(h, h.Self(), peer) // self (birth 0) is oldest: coordinator

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
	if id := wire.PopViewID(casts[1].Msg, nil, h.Net); id != v.ID {
		t.Fatalf("marker names view %v, want %v", id, v.ID)
	}

	// The gate is closed: an application cast buffers above the segment.
	h.InjectDown(core.NewCast(message.New([]byte("fenced"))))
	if got := h.DownOfType(core.DCast); len(got) != 2 {
		t.Fatal("application cast leaked through a closed gate")
	}

	// The own marker's loopback alone asks for nothing; the peer's
	// completes the round, and the coordinator asks for a view edge with
	// nobody failed.
	h.InjectUp(markerEv(v.ID, "", h.Self()))
	if flushes(h) != 0 {
		t.Fatal("flush requested before the peer's marker arrived")
	}
	h.InjectUp(markerEv(v.ID, "", peer))
	fl := h.DownOfType(core.DFlush)
	if len(fl) != 1 || len(fl[0].Failed) != 0 {
		t.Fatalf("flush downcalls = %v, want one with nobody failed", fl)
	}
	if sw.Desc() != "" || !sw.Switching() {
		t.Fatal("swapped before a view edge")
	}

	// The flush installs the next view. Its oldest member — self — casts
	// the view's CONFIG naming the target, and holds the VIEW upcall
	// until it is delivered.
	h.Reset()
	next := viewOf(2, h.Self(), peer)
	enter(h, next, nil)
	cfg := castsOfKind(h, wConfig)
	if len(cfg) != 1 {
		t.Fatalf("CONFIG casts = %d, want 1", len(cfg))
	}
	if id, desc := wire.PopViewID(cfg[0].Msg, nil, h.Net), cfg[0].Msg.PopString(); id != next.ID || desc != "TOTAL" {
		t.Fatalf("CONFIG names %v %q, want %v TOTAL", id, desc, next.ID)
	}
	if len(h.Top.UpEvents) != 0 {
		t.Fatalf("upcalls before the CONFIG: %v", upcalls(h))
	}
	h.InjectUp(configEv(next, "TOTAL"))
	if got := upcalls(h); fmt.Sprint(got) != "[VIEW 2 committed TOTAL]" {
		t.Fatalf("upcalls at the edge = %v, want the VIEW, then the commit", got)
	}
	if sw.Desc() != "TOTAL" {
		t.Fatalf("desc=%q after commit", sw.Desc())
	}
	if names := h.G.Stack().Names(); !strings.Contains(names, "SWITCH[TOTAL]") {
		t.Fatalf("stack names = %q, segment not visible", names)
	}
	if h.G.Stack().Focus("TOTAL") == nil {
		t.Fatal("Focus cannot see into the managed segment")
	}

	// The fenced cast resumed through the NEW segment: the SWITCH kind
	// over a TOTAL header (self is rank 0, so it holds the token and
	// stamps immediately).
	rel := castsOfKind(h, wData)
	if len(rel) != 1 {
		t.Fatalf("gated cast released %d times, want once", len(rel))
	}
	if k := rel[0].Msg.PopUint8(); k != 1 { // TOTAL's own kData
		t.Fatalf("released cast lacks the TOTAL header (kind %d)", k)
	}
	rel[0].Msg.PopUint() // TOTAL's ord
	if string(rel[0].Msg.Body()) != "fenced" {
		t.Fatalf("released body = %q", rel[0].Msg.Body())
	}
	if st := sw.Stats(); st.Committed != 1 || st.Aborted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDataCastWireImage pins what a data cast leaving SWITCH carries:
// its kind byte, then the segment's own headers and the payload —
// no stamp of SWITCH's own.
func TestDataCastWireImage(t *testing.T) {
	for _, tc := range []struct {
		segment string
		want    []byte
	}{
		{"", []byte{wData, 'h', 'i'}},
		{"TOTAL", []byte{wData, 1 /* TOTAL's kData */, 1 /* ord */, 'h', 'i'}},
	} {
		t.Run(fmt.Sprintf("%q", tc.segment), func(t *testing.T) {
			h, sw := setup(t)
			peer := layertest.ID("p", 2)
			v := install(h, h.Self(), peer)
			if tc.segment != "" {
				commitTotal(t, h, sw, v, peer)
			}
			h.InjectDown(core.NewCast(message.New([]byte("hi"))))
			casts := h.DownOfType(core.DCast)
			if len(casts) != 1 {
				t.Fatalf("casts = %d, want 1", len(casts))
			}
			if got := append(casts[0].Msg.Header(), casts[0].Msg.Body()...); !bytes.Equal(got, tc.want) {
				t.Fatalf("wire image = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestAbortOnViewChange pins the rollback edge: a view change while a
// proposal is pending without every marker in aborts it, and the gated
// traffic resumes through the untouched old segment.
func TestAbortOnViewChange(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	v := install(h, h.Self(), peer)

	// A proposal arrives; the gate closes.
	h.InjectUp(proposeEv("TOTAL", v.ID, peer))
	if !sw.Switching() {
		t.Fatal("proposal not pending")
	}
	h.InjectDown(core.NewCast(message.New([]byte("held"))))

	// The view changes mid-handshake (e.g. a partition): its CONFIG
	// keeps the old segment, and the proposal aborts.
	enter(h, viewOf(2, h.Self()), seg(""))

	if got := upcalls(h); fmt.Sprint(got) != "[VIEW 2 aborted: view change during switch]" {
		t.Fatalf("upcalls = %v, want the VIEW, then the abort", got)
	}
	if sw.Desc() != "" || sw.Switching() {
		t.Fatalf("rollback left desc=%q switching=%v", sw.Desc(), sw.Switching())
	}
	// The held cast resumed through the OLD (empty) segment.
	rel := castsOfKind(h, wData)
	if len(rel) != 1 {
		t.Fatalf("held cast released %d times on abort, want once", len(rel))
	}
	if string(rel[0].Msg.Body()) != "held" || rel[0].Msg.HeaderLen() != 0 {
		t.Fatalf("released %q with %d header bytes (old empty segment adds none)", rel[0].Msg.Body(), rel[0].Msg.HeaderLen())
	}
}

// TestViewEdgeDecides pins where a switch ends when a marker is
// missing: nowhere until the view changes. A silent peer leaves the
// proposal pending, the gate shut and nothing re-cast however long it
// lasts; the next view's CONFIG commits it if its oldest member had
// every marker in and aborts it if not.
func TestViewEdgeDecides(t *testing.T) {
	t.Run("silent peer", func(t *testing.T) {
		h, sw := setup(t)
		peer := layertest.ID("p", 2)
		v := install(h, h.Self(), peer)
		h.EP.Do(func() {
			if err := sw.RequestSwitch("TOTAL"); err != nil {
				t.Error(err)
			}
		})
		h.InjectUp(markerEv(v.ID, "", h.Self()))
		h.InjectDown(core.NewCast(message.New([]byte("held"))))
		h.Run(5 * time.Second)

		var kinds []uint8
		for _, ev := range h.DownOfType(core.DCast) {
			kinds = append(kinds, popKind(ev))
		}
		if len(kinds) != 2 || kinds[0] != wPropose || kinds[1] != wQuiesced || flushes(h) != 0 {
			t.Fatalf("casts over 5 s = %v and %d flushes, want one PROPOSE, one QUIESCED and no flush", kinds, flushes(h))
		}
		if !sw.Switching() || len(h.UpOfType(core.USwitch)) != 0 {
			t.Fatal("proposal decided without a view change")
		}

		h.Reset()
		next := viewOf(2, h.Self())
		enter(h, next, nil)
		cfg := castsOfKind(h, wConfig)
		if len(cfg) != 1 {
			t.Fatalf("CONFIG casts = %d, want 1", len(cfg))
		}
		if wire.PopViewID(cfg[0].Msg, nil, h.Net); cfg[0].Msg.PopString() != "" {
			t.Fatal("the CONFIG names the target with a marker missing")
		}
		h.InjectUp(configEv(next, ""))
		if st := sw.Stats(); st.Aborted != 1 || st.Committed != 0 || sw.Switching() || sw.Desc() != "" {
			t.Fatalf("abort did not roll back cleanly: %+v", st)
		}
		if rel := castsOfKind(h, wData); len(rel) != 1 || string(rel[0].Msg.Body()) != "held" {
			t.Fatal("held cast not released through the old segment")
		}
	})
	t.Run("every marker in", func(t *testing.T) {
		h, sw := setup(t)
		peer := layertest.ID("p", 2)
		v := commitTotal(t, h, sw, install(h, h.Self(), peer), peer)
		// The old TOTAL holds stamp 2 without stamp 1: it delivers that
		// cast only when the view passes through it.
		m := message.New([]byte("early"))
		m.PushUint(2)  // TOTAL ord
		m.PushUint8(1) // TOTAL kData
		m.PushUint8(wData)
		h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
		h.InjectUp(proposeEv("", v.ID, h.Self()))
		h.InjectUp(markerEv(v.ID, "", h.Self()))
		h.InjectUp(markerEv(v.ID, "", peer))
		if flushes(h) != 1 {
			t.Fatalf("flushes = %d, want 1 once every marker is in", flushes(h))
		}
		h.Reset()
		enter(h, viewOf(v.ID.Seq+1, h.Self(), peer), seg(""))
		// The fenced cast the old TOTAL still held is delivered in the
		// old view, before the new VIEW, and the view goes up once.
		if got := upcalls(h); fmt.Sprint(got) != "[early VIEW 3 committed]" {
			t.Fatalf("upcalls across the edge = %v, want [early VIEW 3 committed]", got)
		}
		if sw.Desc() != "" || sw.Switching() {
			t.Fatalf("desc=%q switching=%v after the edge", sw.Desc(), sw.Switching())
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
	prev := install(h, h.Self(), peer)
	cur := viewOf(2, h.Self(), peer)
	enter(h, cur, seg(""))
	var err error
	h.EP.Do(func() { err = sw.RequestSwitch("TOTAL") })
	if err != nil {
		t.Fatal(err)
	}
	h.InjectUp(markerEv(prev.ID, "", peer))
	h.InjectUp(markerEv(cur.ID, "", h.Self()))
	if flushes(h) != 0 {
		t.Fatal("a marker naming the previous view counted toward this view's proposal")
	}
	h.InjectUp(markerEv(cur.ID, "", peer))
	if flushes(h) != 1 {
		t.Fatal("the peer's marker for this view did not complete the round")
	}
}

// TestOutOfOrderControlCounts pins what FIFO per sender leaves open: a
// member's marker may arrive before the PROPOSE it answers, and even
// before the view's CONFIG, which another member casts. Neither is
// lost: a member that becomes the oldest at the next edge decides with
// it.
func TestOutOfOrderControlCounts(t *testing.T) {
	h, _ := setup(t)
	older, peer := layertest.ID("0older", 0), layertest.ID("p", 2)
	install(h, older, h.Self(), peer)
	v := viewOf(2, older, h.Self(), peer)
	enter(h, v, nil)
	h.InjectUp(markerEv(v.ID, "", peer)) // before the CONFIG and the PROPOSE
	h.InjectUp(configEv(v, ""))
	h.InjectUp(proposeEv("TOTAL", v.ID, older))
	h.InjectUp(markerEv(v.ID, "", older))
	h.InjectUp(markerEv(v.ID, "", h.Self()))
	// The coordinator fails before its flush; self is the next view's
	// oldest member and had every marker.
	h.Reset()
	enter(h, viewOf(3, h.Self(), peer), nil)
	cfg := castsOfKind(h, wConfig)
	if len(cfg) != 1 {
		t.Fatalf("CONFIG casts = %d, want 1", len(cfg))
	}
	if wire.PopViewID(cfg[0].Msg, nil, h.Net); cfg[0].Msg.PopString() != "TOTAL" {
		t.Fatal("the early marker was lost: the CONFIG does not name the target")
	}
}

// TestRefusalAborts pins the refusal: a member that cannot build the
// target casts a refusal in place of its marker, and delivering one
// aborts the proposal at once.
func TestRefusalAborts(t *testing.T) {
	t.Run("refuser", func(t *testing.T) {
		h, sw := setup(t)
		peer := layertest.ID("p", 2)
		v := install(h, h.Self(), peer)
		h.InjectUp(proposeEv("NOPE", v.ID, peer))
		if sw.Switching() {
			t.Fatal("accepted a target it cannot build")
		}
		casts := h.DownOfType(core.DCast)
		if len(casts) != 1 || popKind(casts[0]) != wQuiesced {
			t.Fatalf("casts = %d, want one refusal marker", len(casts))
		}
		wire.PopViewID(casts[0].Msg, nil, h.Net)
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
		v := install(h, h.Self(), peer)
		h.InjectUp(proposeEv("TOTAL", v.ID, peer))
		h.InjectUp(markerEv(v.ID, "p cannot build", peer))
		sws := h.UpOfType(core.USwitch)
		if len(sws) != 1 || sws[0].Reason != "aborted: p cannot build" || sw.Switching() {
			t.Fatalf("SWITCH upcall = %v, want the refusal's abort", sws)
		}
	})
}

// TestFlushCommitHoldsGateUntilView pins the gate across the flush
// that carries a switch: casts issued after the FLUSH upcall enter no
// segment until the next view's CONFIG has been delivered, and then
// leave through the new one, numbered in the new view. The old segment
// saw the FLUSH, and the membership layer would park a cast cast now
// and release it into the next view, which runs another segment.
func TestFlushCommitHoldsGateUntilView(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	v := install(h, h.Self(), peer)
	h.EP.Do(func() {
		if err := sw.RequestSwitch("TOTAL"); err != nil {
			t.Error(err)
		}
	})
	h.InjectUp(markerEv(v.ID, "", h.Self()))
	h.InjectUp(markerEv(v.ID, "", peer))
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{}})
	h.InjectDown(core.NewCast(message.New([]byte("first"))))
	h.InjectDown(core.NewCast(message.New([]byte("second"))))
	h.Run(0)
	next := viewOf(2, h.Self(), peer)
	enter(h, next, nil)
	h.Run(0)
	if n := len(castsOfKind(h, wData)); n != 0 {
		t.Fatalf("%d casts left before the next view's CONFIG was delivered", n)
	}
	h.Reset()
	h.InjectUp(configEv(next, "TOTAL"))
	rel := castsOfKind(h, wData)
	if len(rel) != 2 {
		t.Fatalf("casts released after the CONFIG = %d, want 2", len(rel))
	}
	for i, want := range []string{"first", "second"} {
		rel[i].Msg.PopUint8() // TOTAL's kData
		if ord := rel[i].Msg.PopUint(); ord != uint64(i+1) {
			t.Fatalf("cast %d stamped %d in the new view, want %d", i, ord, i+1)
		}
		if string(rel[i].Msg.Body()) != want {
			t.Fatalf("cast %d body = %q, want %q", i, rel[i].Msg.Body(), want)
		}
	}
}

// A member that merged into a view whose oldest member runs another
// segment must not cast before it has adopted it: its cast would leave
// through a segment no other member of the view runs. The gate holds
// until the view's CONFIG; the CONFIG swaps the segment, and the held
// cast then leaves through the new one.
func TestNoCastBeforeTheViewsConfig(t *testing.T) {
	h, sw := setup(t)
	older, peer := layertest.ID("0older", 0), layertest.ID("p", 2)
	v := h.InstallView(older, h.Self(), peer)
	h.InjectDown(core.NewCast(message.New([]byte("held"))))
	h.Run(0)
	if n := len(h.DownOfType(core.DCast)) + len(h.DownOfType(core.DSend)); n != 0 {
		t.Fatalf("%d events left before the view's CONFIG", n)
	}
	h.InjectUp(configEv(v, "TOTAL"))
	if sw.Desc() != "TOTAL" {
		t.Fatalf("desc=%q after a CONFIG naming TOTAL", sw.Desc())
	}
	if got := upcalls(h); fmt.Sprint(got) != "[VIEW 1 committed TOTAL]" {
		t.Fatalf("upcalls = %v, want the VIEW, then the commit", got)
	}
	// The held cast is TOTAL's now: it waits for the token, which the
	// view's first member holds, and asks for it by a send that names
	// the view.
	sends := h.DownOfType(core.DSend)
	if len(sends) != 1 || popKind(sends[0]) != wSendApp {
		t.Fatalf("sends = %v, want one token request from the new segment", sends)
	}
	if id := wire.PopViewID(sends[0].Msg, nil, h.Net); id != v.ID {
		t.Fatalf("send names view %v, want %v", id, v.ID)
	}
	if k := sends[0].Msg.PopUint8(); k != 3 { // TOTAL's kReq
		t.Fatalf("send kind %d, want TOTAL's token request", k)
	}
}

// The gate also holds while a membership flush runs and in a view that
// is not primary: the membership layer parks a cast there and releases
// it into the next view, which may run another segment. The cast waits
// above the segment instead and leaves once the next primary view is
// configured. A non-primary view has no CONFIG — nothing is delivered
// in it — so its VIEW goes up at once and its oldest member casts
// nothing.
func TestNoCastThroughAFlushOrOutsideThePrimary(t *testing.T) {
	h, _ := setup(t)
	peer := layertest.ID("p", 2)
	install(h, h.Self(), peer)
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{}})
	h.InjectDown(core.NewCast(message.New([]byte("flushing"))))
	minority := viewOf(2, h.Self())
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: minority, Primary: false}})
	h.Run(0)
	h.InjectDown(core.NewCast(message.New([]byte("minority"))))
	h.Run(0)
	if n := len(h.DownOfType(core.DCast)); n != 0 {
		t.Fatalf("%d casts left during the flush or in the minority view", n)
	}
	if got := upcalls(h); fmt.Sprint(got) != "[VIEW 2]" {
		t.Fatalf("upcalls = %v, want the minority view's VIEW at once", got)
	}
	h.Reset()
	enter(h, viewOf(3, h.Self(), peer), seg(""))
	var got []string
	for _, ev := range castsOfKind(h, wData) {
		got = append(got, string(ev.Msg.Body()))
	}
	if fmt.Sprint(got) != "[flushing minority]" {
		t.Fatalf("released %v in the primary view, want [flushing minority]", got)
	}
	if got := upcalls(h); fmt.Sprint(got) != "[VIEW 3]" {
		t.Fatalf("upcalls = %v, want the primary view's VIEW", got)
	}
}

// A CONFIG naming an earlier view configures nothing, whether it
// arrives before or after the current view's own: the view it names
// ended before its CONFIG was delivered, and was never reported.
func TestConfigNamingAnEarlierViewIsIgnored(t *testing.T) {
	h, sw := setup(t)
	older, peer := layertest.ID("0older", 0), layertest.ID("p", 2)
	install(h, older, h.Self())
	ended := viewOf(2, older, h.Self())
	enter(h, ended, nil)
	cur := viewOf(3, older, h.Self(), peer)
	enter(h, cur, nil)
	h.InjectUp(configEv(ended, "TOTAL"))
	if len(h.Top.UpEvents) != 0 || sw.Desc() != "" {
		t.Fatalf("a stale CONFIG configured the view: upcalls %v, desc %q", upcalls(h), sw.Desc())
	}
	h.InjectUp(configEv(cur, ""))
	h.InjectUp(configEv(ended, "TOTAL"))
	if got := upcalls(h); fmt.Sprint(got) != "[VIEW 3]" || sw.Desc() != "" {
		t.Fatalf("upcalls %v, desc %q: want only VIEW 3 on the empty segment", got, sw.Desc())
	}
}

// Data held in a view that ends before its CONFIG is delivered is
// delivered nowhere: every member moving on with this one held it too.
// It is reported lost, not delivered in the next view, where it would
// cross the view's cut. The same report stands for a cast past the
// cap on what a view may hold.
func TestHeldArrivalsDoNotCrossAView(t *testing.T) {
	t.Run("view ends", func(t *testing.T) {
		h, sw := setup(t)
		peer := layertest.ID("p", 2)
		install(h, h.Self(), peer)
		enter(h, viewOf(2, h.Self(), peer), nil)
		m := message.New([]byte("early"))
		m.PushUint8(wData)
		h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
		if len(h.Top.UpEvents) != 0 {
			t.Fatalf("upcalls before the CONFIG: %v", upcalls(h))
		}
		enter(h, viewOf(3, h.Self(), peer), seg(""))
		if lost := h.UpOfType(core.ULostMessage); len(lost) != 1 || lost[0].Source != peer {
			t.Fatalf("held cast at the view edge: LOST_MESSAGE %v, want one from the peer", lost)
		}
		if got := upcalls(h); fmt.Sprint(got) != "[VIEW 3]" {
			t.Fatalf("upcalls = %v, want only VIEW 3", got)
		}
		if st := sw.Stats(); st.StaleDropped != 1 {
			t.Fatalf("stats = %+v, want one stale drop", st)
		}
	})
	t.Run("cap", func(t *testing.T) {
		h, _ := setup(t)
		peer := layertest.ID("p", 2)
		install(h, h.Self(), peer)
		next := viewOf(2, h.Self(), peer)
		enter(h, next, nil)
		const held = 1024 // the cap
		for i := 0; i <= held; i++ {
			m := message.New([]byte(fmt.Sprint(i)))
			m.PushUint8(wData)
			h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
		}
		if lost := h.UpOfType(core.ULostMessage); len(lost) != 1 {
			t.Fatalf("LOST_MESSAGE upcalls past the cap = %d, want 1", len(lost))
		}
		h.InjectUp(configEv(next, ""))
		if n := len(h.UpOfType(core.UCast)); n != held {
			t.Fatalf("%d held casts delivered after the CONFIG, want %d", n, held)
		}
	})
}

// A retiring segment sees the view it will not run in, so that what it
// holds for the application is delivered in the view that ends; what it
// sends in reply — here TOTAL asking the new view's first member for
// the token its pending cast waits on — never reaches the wire. The
// cast it still holds is reported lost, in the view that ends.
func TestRetiringSegmentOutputNeverReachesTheWire(t *testing.T) {
	h, sw := setup(t)
	older, peer := layertest.ID("0older", 0), layertest.ID("p", 2)
	install(h, older, h.Self())
	enter(h, viewOf(2, older, h.Self()), seg("TOTAL"))
	h.InjectDown(core.NewCast(message.New([]byte("pending"))))
	if sends := h.DownOfType(core.DSend); len(sends) != 1 {
		t.Fatalf("TOTAL sent %d token requests for its pending cast, want 1", len(sends))
	}
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{}})
	h.Reset()
	enter(h, viewOf(3, older, h.Self(), peer), seg(""))
	if n := len(h.Bot.DownEvents); n != 0 {
		t.Fatalf("the retiring TOTAL put %d events on the wire", n)
	}
	if sw.Desc() != "" {
		t.Fatalf("desc=%q after a CONFIG naming the empty segment", sw.Desc())
	}
	if lost := h.UpOfType(core.ULostMessage); len(lost) != 1 || lost[0].Source != h.Self() {
		t.Fatalf("LOST_MESSAGE %v, want one from self for the pending cast", lost)
	}
	if first := h.Top.UpEvents[0].Type; first != core.ULostMessage {
		t.Fatalf("first upcall %v, want the loss report before VIEW 3", first)
	}
}

// A non-primary view runs whatever segment each member brought into it,
// and those may differ, so no segment's send crosses there: TOTAL
// asking for the token its pending cast waits on sends nothing, and a
// send naming the view is dropped on arrival, not handed by the empty
// segment to the application.
func TestNoSendOutsideThePrimary(t *testing.T) {
	older, peer := layertest.ID("0older", 0), layertest.ID("p", 2)
	t.Run("sender", func(t *testing.T) {
		h, _ := setup(t)
		install(h, older, h.Self())
		enter(h, viewOf(2, older, h.Self()), seg("TOTAL"))
		h.InjectDown(core.NewCast(message.New([]byte("pending"))))
		h.Reset()
		minority := viewOf(3, older, h.Self())
		h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: minority, Primary: false}})
		h.Run(time.Second)
		if n := len(h.DownOfType(core.DSend)); n != 0 {
			t.Fatalf("%d sends left in a non-primary view", n)
		}
	})
	t.Run("receiver", func(t *testing.T) {
		h, sw := setup(t)
		install(h, h.Self(), peer)
		minority := viewOf(2, h.Self(), peer)
		h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: minority, Primary: false}})
		m := message.New([]byte("token request"))
		wire.PushViewID(m, minority.ID, nil)
		m.PushUint8(wSendApp)
		h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: peer})
		if got := h.UpOfType(core.USend); len(got) != 0 {
			t.Fatalf("sends delivered in a non-primary view: %v", got)
		}
		if st := sw.Stats(); st.StaleDropped != 1 {
			t.Fatalf("stats = %+v, want one stale drop", st)
		}
	})
}

// A send carries the view its segment ran in, because the membership
// layer view-tags casts but not sends. One from a retired segment that
// arrives in the next view — an old TOTAL's token request — is
// dropped, not fed to the new segment, which here would hand it to the
// application; one that names the view goes up.
func TestRetiredSendDroppedInNextView(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	v := commitTotal(t, h, sw, install(h, h.Self(), peer), peer)
	next := viewOf(v.ID.Seq+1, h.Self(), peer)
	enter(h, next, seg(""))
	h.Reset()
	sendIn := func(view core.ViewID, body string) {
		m := message.New([]byte(body))
		wire.PushViewID(m, view, nil)
		m.PushUint8(wSendApp)
		h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: peer})
	}
	sendIn(v.ID, "retired")
	sendIn(next.ID, "current")
	got := h.UpOfType(core.USend)
	if len(got) != 1 || string(got[0].Msg.Body()) != "current" {
		t.Fatalf("sends delivered = %v, want only the one naming the view", got)
	}
	if st := sw.Stats(); st.StaleDropped != 1 {
		t.Fatalf("stats = %+v, want one stale drop", st)
	}
}

// TestRetiredSegmentIsInert pins the detach fence: after a swap, the
// old segment's layers cannot leak events into the stack.
func TestRetiredSegmentIsInert(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	v := commitTotal(t, h, sw, install(h, h.Self(), peer), peer)

	oldTotal := h.G.Stack().Focus("TOTAL").(*total.Total)

	// Commit a switch to the empty segment (remove TOTAL).
	h.InjectUp(proposeEv("", v.ID, h.Self()))
	h.InjectUp(markerEv(v.ID, "", h.Self()))
	h.InjectUp(markerEv(v.ID, "", peer))
	enter(h, viewOf(v.ID.Seq+1, h.Self(), peer), seg(""))
	if sw.Desc() != "" {
		t.Fatalf("downgrade not committed: desc=%q", sw.Desc())
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

// tokenEv is TOTAL's token as src grants it in view v, with nextOrd 0
// and nobody waiting, under SWITCH's header for a send in v.
func tokenEv(v core.ViewID, src core.EndpointID) *core.Event {
	m := message.New(nil)
	wire.PushIDList(m, nil, nil)
	m.PushUint(0)
	wire.PushViewID(m, v, nil)
	m.PushUint8(2) // TOTAL's kToken
	wire.PushViewID(m, v, nil)
	m.PushUint8(wSendApp)
	return &core.Event{Type: core.USend, Msg: m, Source: src}
}

// A FLUSH that comes while the view it ends still waits for its CONFIG
// reaches the segment after that view, not before it: a segment that
// saw it first would take the VIEW for the end of the flush. TOTAL
// would then stamp, on the token, a cast that the flush parks and
// releases into the next view under this view's stamp, where another
// cast carries the same one.
func TestFlushBeforeTheViewsConfigFollowsTheView(t *testing.T) {
	h, _ := setup(t)
	older, peer := layertest.ID("0older", 0), layertest.ID("p", 2)
	v1 := h.InstallView(older, h.Self(), peer)
	h.InjectUp(configEv(v1, "TOTAL"))
	h.InjectDown(core.NewCast(message.New([]byte("waits for the token"))))
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{}})
	v2 := viewOf(2, older, h.Self(), peer)
	enter(h, v2, nil)
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{}}) // v2's flush, before its CONFIG
	h.Reset()
	h.InjectUp(configEv(v2, "TOTAL"))
	var order []string
	for _, ev := range h.Top.UpEvents {
		switch ev.Type {
		case core.UView:
			order = append(order, fmt.Sprintf("VIEW %d", ev.View.ID.Seq))
		case core.UFlush:
			order = append(order, "FLUSH")
		}
	}
	if fmt.Sprint(order) != "[VIEW 2 FLUSH]" {
		t.Fatalf("upcalls %v, want VIEW 2, then the FLUSH that ends it", order)
	}
	h.InjectUp(tokenEv(v2.ID, older)) // granted in v2, while v2 flushes
	enter(h, viewOf(3, older, h.Self(), peer), seg("TOTAL"))
	if casts := castsOfKind(h, wData); len(casts) != 0 {
		t.Fatalf("%d casts stamped in the flushing view 2 were released into view 3", len(casts))
	}
}
