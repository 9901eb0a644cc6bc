package vss_test

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layers/vss"
	"horus/internal/layertest"
	"horus/internal/message"
)

func setup(t *testing.T) (*layertest.Harness, core.EndpointID) {
	t.Helper()
	h := layertest.New(t, vss.New)
	p := layertest.ID("p", 2)
	h.InstallView(h.Self(), p)
	h.Reset()
	return h, p
}

// identified builds a delivery as STABLE below would stamp it.
func identified(body string, src core.EndpointID, seq uint64) *core.Event {
	return &core.Event{Type: core.UCast, Msg: message.New([]byte(body)),
		Source: src, ID: core.MsgID{Origin: src, Seq: seq}}
}

func TestResendsOwnUnstableOnFlush(t *testing.T) {
	h, p := setup(t)
	h.InjectDown(core.NewCast(message.New([]byte("mine-1"))))
	h.InjectDown(core.NewCast(message.New([]byte("mine-2"))))
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: nil}})
	var fwds, dones int
	for _, ev := range h.DownOfType(core.DSend) {
		switch ev.Msg.Clone().PopUint8() {
		case 2: // kFwd
			fwds++
		case 3: // kDone
			dones++
		}
		if len(ev.Dests) != 1 || ev.Dests[0] != p {
			t.Fatalf("resend addressed to %v", ev.Dests)
		}
	}
	if fwds != 2 || dones != 1 {
		t.Fatalf("fwds=%d dones=%d, want 2/1", fwds, dones)
	}
	// Consent only after the peer's done.
	if got := h.DownOfType(core.DFlushOK); len(got) != 0 {
		t.Fatal("early consent")
	}
	d := message.New(nil)
	d.PushUint8(3)
	h.InjectUp(&core.Event{Type: core.USend, Msg: d, Source: p})
	if got := h.DownOfType(core.DFlushOK); len(got) != 1 {
		t.Fatal("no consent after peer done")
	}
}

func TestStabilityTrimsOwnBuffer(t *testing.T) {
	h, p := setup(t)
	h.InjectDown(core.NewCast(message.New([]byte("m1"))))
	h.InjectDown(core.NewCast(message.New([]byte("m2"))))
	// Everyone processed our first message.
	members := []core.EndpointID{h.Self(), p}
	m := core.NewStabilityMatrix(members)
	for _, mem := range members {
		m.Set(h.Self(), mem, 1)
	}
	h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: m}})
	h.Reset()
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: nil}})
	fwds := 0
	for _, ev := range h.DownOfType(core.DSend) {
		if ev.Msg.Clone().PopUint8() == 2 {
			fwds++
		}
	}
	if fwds != 1 {
		t.Fatalf("resends = %d, want 1 (stable message trimmed)", fwds)
	}
}

func TestFwdDeliversAndDedups(t *testing.T) {
	h, p := setup(t)
	inner := message.New([]byte("resent"))
	f := message.New(inner.Marshal())
	f.PushUint64(1)
	f.PushUint8(2) // kFwd
	h.InjectUp(&core.Event{Type: core.USend, Msg: f.Clone(), Source: p})
	got := h.UpOfType(core.UCast)
	if len(got) != 1 || string(got[0].Msg.Body()) != "resent" {
		t.Fatalf("fwd delivery = %v", got)
	}
	// The direct copy arriving later is a duplicate.
	h.InjectUp(identified("resent", p, 1))
	if got := h.UpOfType(core.UCast); len(got) != 1 {
		t.Fatal("duplicate delivered after fwd")
	}
}

func TestUnidentifiedCastErrors(t *testing.T) {
	h, p := setup(t)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: message.New([]byte("anon")), Source: p})
	if got := h.UpOfType(core.USystemError); len(got) != 1 {
		t.Fatal("no SYSTEM_ERROR without stability identities")
	}
}
