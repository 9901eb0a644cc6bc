package total_test

import (
	"strings"
	"testing"

	"horus/internal/core"
	"horus/internal/layers/total"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/wire"
)

func setup(t *testing.T) (*layertest.Harness, *total.Total, core.EndpointID) {
	t.Helper()
	h := layertest.New(t, total.New)
	peer := layertest.ID("p", 2)
	h.InstallView(h.Self(), peer) // self (birth 1) is rank 0: first holder
	h.Reset()
	l := h.G.Focus("TOTAL").(*total.Total)
	return h, l, peer
}

func TestHolderStampsImmediately(t *testing.T) {
	h, l, _ := setup(t)
	if !l.Holder() {
		t.Fatal("rank 0 is not the initial token holder")
	}
	h.InjectDown(core.NewCast(message.New([]byte("m"))))
	sent := h.DownOfType(core.DCast)
	if len(sent) != 1 {
		t.Fatalf("sent %d casts, want 1", len(sent))
	}
	kind := sent[0].Msg.PopUint8()
	ord := sent[0].Msg.PopUint()
	if kind != 1 || ord != 1 {
		t.Fatalf("kind=%d ord=%d, want data/1", kind, ord)
	}
}

func TestNonHolderRequestsToken(t *testing.T) {
	h := layertest.New(t, total.New)
	older := layertest.ID("0older", 0)
	h.InstallView(h.Self(), older) // the peer (birth 0) is rank 0
	h.Reset()
	l := h.G.Focus("TOTAL").(*total.Total)
	if l.Holder() {
		t.Fatal("rank 1 should not hold the token")
	}
	h.InjectDown(core.NewCast(message.New([]byte("m"))))
	if got := h.DownOfType(core.DCast); len(got) != 0 {
		t.Fatal("cast sent without the token")
	}
	reqs := h.DownOfType(core.DSend)
	if len(reqs) != 1 || reqs[0].Dests[0] != older {
		t.Fatalf("token request = %v, want one to %v", reqs, older)
	}
}

func TestReceiverDeliversInStampOrder(t *testing.T) {
	h, _, peer := setup(t)
	mk := func(ord uint64, body string) *core.Event {
		m := message.New([]byte(body))
		m.PushUint(ord)
		m.PushUint8(1) // kData
		return &core.Event{Type: core.UCast, Msg: m, Source: peer}
	}
	h.InjectUp(mk(2, "second"))
	if got := h.UpOfType(core.UCast); len(got) != 0 {
		t.Fatal("out-of-order stamp delivered early")
	}
	h.InjectUp(mk(1, "first"))
	got := h.UpOfType(core.UCast)
	if len(got) != 2 || string(got[0].Msg.Body()) != "first" || string(got[1].Msg.Body()) != "second" {
		t.Fatalf("delivery order: %v", got)
	}
}

// Stamps ahead of their turn are held however far ahead — one is what
// a member sees first when it joins a long-running order — a stamp seen
// before is dropped whether it was delivered or is still held, and a
// view change delivers what is held in stamp order across the gaps
// (virtual synchrony made the held sets the same everywhere).
func TestBufferedStampsDrainInOrderAtViewChange(t *testing.T) {
	h, l, peer := setup(t)
	mk := func(ord uint64, body string) *core.Event {
		m := message.New([]byte(body))
		m.PushUint(ord)
		m.PushUint8(1) // kData
		return &core.Event{Type: core.UCast, Msg: m, Source: peer}
	}
	for _, ev := range []*core.Event{
		mk(1, "1"), mk(1<<40, "far"), mk(5, "5"), mk(3, "3"), mk(5, "5 again"), mk(1, "1 again"), mk(2, "2"),
	} {
		h.InjectUp(ev)
	}
	if got := bodies(h); got != "1 2 3" {
		t.Fatalf("delivered %q before the view change, want 1 2 3", got)
	}
	if l.Quiescent(false) {
		t.Fatal("quiescent with stamps 5 and 2^40 held")
	}
	v := core.NewView(core.ViewID{Seq: 2, Coord: h.Self()}, "test", []core.EndpointID{h.Self(), peer})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v, Primary: true}})
	if got := bodies(h); got != "1 2 3 5 far" {
		t.Fatalf("delivered %q, want 1 2 3 5 far", got)
	}
	if !l.Quiescent(false) || l.Stats().Delivered != 5 {
		t.Fatalf("after the view change: quiescent=%v, %d delivered", l.Quiescent(false), l.Stats().Delivered)
	}
	h.InjectUp(mk(1, "new order"))
	if got := bodies(h); got != "1 2 3 5 far new order" {
		t.Fatalf("the new view's first stamp: delivered %q", got)
	}
}

func bodies(h *layertest.Harness) string {
	var out []string
	for _, ev := range h.UpOfType(core.UCast) {
		out = append(out, string(ev.Msg.Body()))
	}
	return strings.Join(out, " ")
}

func TestTokenGrantOnRequest(t *testing.T) {
	h, l, peer := setup(t)
	// The peer asks for the token; we have nothing pending, so it goes.
	req := message.New(nil)
	wire.PushEndpointID(req, peer, nil)
	req.PushUint8(3) // kReq
	h.InjectUp(&core.Event{Type: core.USend, Msg: req, Source: peer})
	if l.Holder() {
		t.Fatal("holder kept the token despite a waiting requester")
	}
	grants := h.DownOfType(core.DSend)
	if len(grants) != 1 || grants[0].Dests[0] != peer {
		t.Fatalf("token grant = %v", grants)
	}
	if kind := grants[0].Msg.PopUint8(); kind != 2 { // kToken
		t.Fatalf("grant kind = %d", kind)
	}
}

func TestViewChangeResetsOrderAndElectsRankZero(t *testing.T) {
	h, l, peer := setup(t)
	// Pass the token away, then a view change must return it to rank 0
	// (us) and reset the order space.
	req := message.New(nil)
	wire.PushEndpointID(req, peer, nil)
	req.PushUint8(3)
	h.InjectUp(&core.Event{Type: core.USend, Msg: req, Source: peer})
	if l.Holder() {
		t.Fatal("setup: token still here")
	}
	v := core.NewView(core.ViewID{Seq: 2, Coord: h.Self()}, "test",
		[]core.EndpointID{h.Self(), peer})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v, Primary: true}})
	if !l.Holder() {
		t.Fatal("lowest rank did not regenerate the token after the view change")
	}
	h.Reset()
	h.InjectDown(core.NewCast(message.New([]byte("fresh"))))
	sent := h.DownOfType(core.DCast)
	sent[0].Msg.PopUint8()
	if ord := sent[0].Msg.PopUint(); ord != 1 {
		t.Fatalf("first stamp of new view = %d, want 1", ord)
	}
}

func TestPendingCastsResubmittedAfterViewChange(t *testing.T) {
	h := layertest.New(t, total.New)
	older := layertest.ID("0older", 0)
	h.InstallView(h.Self(), older)
	h.Reset()
	// Cast without the token: buffered.
	h.InjectDown(core.NewCast(message.New([]byte("stuck"))))
	if got := h.DownOfType(core.DCast); len(got) != 0 {
		t.Fatal("cast escaped without token")
	}
	// The holder crashes; the new view makes us rank 0.
	v := core.NewView(core.ViewID{Seq: 2, Coord: h.Self()}, "test",
		[]core.EndpointID{h.Self()})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v, Primary: true}})
	sent := h.DownOfType(core.DCast)
	if len(sent) != 1 {
		t.Fatalf("pending cast not resubmitted: %d", len(sent))
	}
	l := h.G.Focus("TOTAL").(*total.Total)
	if l.Stats().Resubmits != 1 {
		t.Errorf("Resubmits = %d, want 1", l.Stats().Resubmits)
	}
}

// A token from outside the view was granted in another view's order
// space, by a member that has not yet learned it was excluded; a token
// a member of this view granted in an earlier one was delayed across
// the view change. Taking either would make a second holder beside the
// one the view elected, and two casts would carry one stamp. Both are
// dropped; a token granted in this view is taken.
func TestTokenFromOutsideTheViewIsDropped(t *testing.T) {
	h := layertest.New(t, total.New)
	older, outsider := layertest.ID("0older", 0), layertest.ID("x", 9)
	v := h.InstallView(h.Self(), older) // the peer (birth 0) is rank 0
	h.Reset()
	l := h.G.Focus("TOTAL").(*total.Total)
	h.InjectDown(core.NewCast(message.New([]byte("waiting"))))
	token := func(from core.EndpointID, in core.ViewID) {
		m := message.New(nil)
		wire.PushIDList(m, nil, nil) // nobody else waiting
		m.PushUint(5)                // the granter's next stamp
		wire.PushViewID(m, in, nil)
		m.PushUint8(2) // kToken
		h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: from})
	}
	token(outsider, core.ViewID{Seq: 3, Coord: outsider})
	if l.Holder() || len(h.DownOfType(core.DCast)) != 0 {
		t.Fatal("a token from outside the view was taken")
	}
	token(older, core.ViewID{Seq: v.ID.Seq - 1, Coord: v.ID.Coord})
	if l.Holder() || len(h.DownOfType(core.DCast)) != 0 {
		t.Fatal("a token from an earlier view was taken")
	}
	token(older, v.ID)
	if sent := h.DownOfType(core.DCast); !l.Holder() || len(sent) != 1 {
		t.Fatalf("the view's own token: holder=%v, %d casts stamped", l.Holder(), len(sent))
	}
}
