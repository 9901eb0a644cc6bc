package switchp_test

import (
	"strings"
	"testing"

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
	wReady    = 5
	wCommit   = 6
	wAbort    = 7
	wRequest  = 8
	wEpoch    = 9
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

func setup(t *testing.T, opts ...switchp.Option) (*layertest.Harness, *switchp.Switch) {
	t.Helper()
	// The harness fakes the VS base with capture layers, so declare
	// what a real MBRSHIP:…:COM base would offer beneath the fence.
	opts = append([]switchp.Option{
		switchp.WithResolver(resolver),
		switchp.WithOpaqueBase(property.SegmentBase),
	}, opts...)
	h := layertest.New(t, switchp.NewWith(opts...))
	sw := h.G.Stack().Focus("SWITCH").(*switchp.Switch)
	return h, sw
}

// ctl builds a SWITCH control cast as a peer would send it.
func ctl(kind uint8, epoch uint64, src core.EndpointID) *core.Event {
	m := message.New(nil)
	m.PushUint(epoch)
	m.PushUint8(kind)
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

// popKind destructively reads the SWITCH-level kind of a captured
// downward cast.
func popKind(ev *core.Event) uint8 { return ev.Msg.PopUint8() }

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

// TestFullCommitFlow drives the PROPOSE → QUIESCE → SWAP → RESUME
// round from the coordinator's seat, emulating the peer's (and VS
// loopback's) control casts by injection.
func TestFullCommitFlow(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	h.InstallView(h.Self(), peer) // self (birth 1) is oldest: coordinator
	h.Reset()

	var err error
	h.EP.Do(func() { err = sw.RequestSwitch("TOTAL") })
	if err != nil {
		t.Fatal(err)
	}
	// The coordinator casts PROPOSE then, with an empty (trivially
	// quiescent) segment, its own QUIESCED marker.
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

	// The gate is closed: an application cast buffers above the segment.
	h.InjectDown(core.NewCast(message.New([]byte("fenced"))))
	if got := h.DownOfType(core.DCast); len(got) != 2 {
		t.Fatal("application cast leaked through a closed gate")
	}

	// Everyone's QUIESCED arrives (self via loopback, then the peer):
	// the cut is closed, the segment is drained → READY.
	h.InjectUp(ctl(wQuiesced, 1, h.Self()))
	h.InjectUp(ctl(wQuiesced, 1, peer))
	casts = h.DownOfType(core.DCast)
	if len(casts) != 3 || popKind(casts[2]) != wReady {
		t.Fatalf("no READY after all-quiesced (casts=%d)", len(casts))
	}

	// Everyone's READY: the coordinator commits.
	h.InjectUp(ctl(wReady, 1, h.Self()))
	h.InjectUp(ctl(wReady, 1, peer))
	casts = h.DownOfType(core.DCast)
	if len(casts) != 4 || popKind(casts[3]) != wCommit {
		t.Fatalf("no COMMIT after all-ready (casts=%d)", len(casts))
	}

	// The commit's own delivery performs the swap and resumes.
	h.InjectUp(ctl(wCommit, 1, h.Self()))
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
	if len(casts) != 5 {
		t.Fatalf("gated cast not released (casts=%d)", len(casts))
	}
	rel := casts[4]
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
// proposal is pending aborts it, and the gated traffic resumes
// through the untouched old segment.
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
	w := core.NewView(core.ViewID{Seq: 2, Coord: h.Self()}, "test", []core.EndpointID{h.Self()})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: w, Primary: true}})
	h.Run(0) // the abort's gate release rides a same-instant timer

	sws := h.UpOfType(core.USwitch)
	if len(sws) != 1 || !strings.HasPrefix(sws[0].Reason, "aborted") {
		t.Fatalf("SWITCH upcall = %v, want abort", sws)
	}
	if sw.Epoch() != 0 || sw.Desc() != "" || sw.Switching() {
		t.Fatalf("rollback left epoch=%d desc=%q switching=%v", sw.Epoch(), sw.Desc(), sw.Switching())
	}
	// The held cast resumed through the OLD (empty) segment at epoch 0.
	var rel *core.Event
	for _, ev := range h.DownOfType(core.DCast) {
		if k := popKind(ev); k == wData {
			rel = ev
			break
		}
	}
	if rel == nil {
		t.Fatal("held cast not released on abort")
	}
	if e := rel.Msg.PopUint(); e != 0 {
		t.Fatalf("released epoch = %d, want 0 (old segment)", e)
	}
	if string(rel.Msg.Body()) != "held" {
		t.Fatalf("released body = %q (old empty segment adds no headers)", rel.Msg.Body())
	}
}

// TestCoordinatorRetriesThenAborts pins the deadline/retry/backoff
// edge: an unresponsive peer forces bounded re-proposes, then ABORT.
func TestCoordinatorRetriesThenAborts(t *testing.T) {
	h, sw := setup(t)
	peer := layertest.ID("p", 2)
	h.InstallView(h.Self(), peer)
	h.Reset()

	h.EP.Do(func() {
		if err := sw.RequestSwitch("TOTAL"); err != nil {
			t.Error(err)
		}
	})
	h.Run(5 * 1000 * 1000 * 1000) // 5s of virtual time: all deadlines expire

	var kinds []uint8
	for _, ev := range h.DownOfType(core.DCast) {
		kinds = append(kinds, popKind(ev))
	}
	proposes, aborts := 0, 0
	for _, k := range kinds {
		switch k {
		case wPropose:
			proposes++
		case wAbort:
			aborts++
		}
	}
	if proposes != 3 { // initial + 2 retries
		t.Fatalf("proposes = %d (kinds %v), want 3", proposes, kinds)
	}
	if aborts != 1 {
		t.Fatalf("aborts = %d (kinds %v), want 1", aborts, kinds)
	}
	sws := h.UpOfType(core.USwitch)
	if len(sws) != 1 || !strings.Contains(sws[0].Reason, "deadline") {
		t.Fatalf("SWITCH upcall = %v, want deadline abort", sws)
	}
	st := sw.Stats()
	if st.Retries != 2 || st.Aborted != 1 || st.Committed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if sw.Switching() || sw.Epoch() != 0 {
		t.Fatal("abort did not roll back cleanly")
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
	h, sw := setup(t, switchp.WithInitialSegment("TOTAL"))
	peer := layertest.ID("p", 2)
	v := h.InstallView(h.Self(), peer)
	h.Reset()

	oldTotal := h.G.Stack().Focus("TOTAL").(*total.Total)

	// Commit a switch to the empty segment (remove TOTAL).
	h.InjectUp(proposeEv(1, "", v, peer))
	h.InjectUp(ctl(wQuiesced, 1, h.Self()))
	h.InjectUp(ctl(wQuiesced, 1, peer))
	h.InjectUp(ctl(wReady, 1, h.Self()))
	h.InjectUp(ctl(wReady, 1, peer))
	h.InjectUp(ctl(wCommit, 1, peer))
	if sw.Epoch() != 1 || sw.Desc() != "" {
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
	h.Run(2 * 1000 * 1000 * 1000) // any zombie timers fire into the void
	if n := len(h.Bot.DownEvents); n != 0 {
		t.Fatalf("retired segment timer leaked %d events", n)
	}
}
