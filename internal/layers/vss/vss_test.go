package vss_test

import (
	"fmt"
	"slices"
	"testing"

	"horus/internal/core"
	"horus/internal/layers/vss"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/vslog"
	"horus/internal/wire"
)

// The flush exchange's DONE, which carries the forwards.
const kDone = 3

// doneWith builds a DONE sent under no failure that forwards the
// entries of log.
func doneWith(log *vslog.Log) *message.Message {
	m := message.New(nil)
	vslog.PushBatch(m, log, nil)
	wire.PushIDList(m, nil, nil)
	m.PushUint8(kDone)
	return m
}

// forwards reads the DONEs among sends, as they went down, and returns
// the casts they forward, as "origin/seq image", and how many there
// are.
func forwards(t *testing.T, dir core.Directory, sends []*core.Event) (fwds []string, dones int) {
	t.Helper()
	for _, ev := range sends {
		msg := ev.Msg.Clone()
		if msg.PopUint8() != kDone {
			continue
		}
		dones++
		wire.PopIDList(msg, nil, dir)
		batch, ok := vslog.PopBatch(msg, nil, dir)
		if !ok {
			t.Fatal("a DONE's batch does not read")
		}
		batch.Each(func(origin core.EndpointID, seq uint64, image []byte) {
			fwds = append(fwds, fmt.Sprintf("%v/%d %x", origin, seq, image))
		})
	}
	return fwds, dones
}

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
	for _, ev := range h.DownOfType(core.DSend) {
		if len(ev.Dests) != 1 || ev.Dests[0] != p {
			t.Fatalf("resend addressed to %v", ev.Dests)
		}
	}
	if fwds, dones := forwards(t, h.Net, h.DownOfType(core.DSend)); len(fwds) != 2 || dones != 1 {
		t.Fatalf("fwds=%d dones=%d, want 2/1", len(fwds), dones)
	}
	// Consent only after the peer's done.
	if got := h.DownOfType(core.DFlushOK); len(got) != 0 {
		t.Fatal("early consent")
	}
	h.InjectUp(&core.Event{Type: core.USend, Msg: doneWith(&vslog.Log{}), Source: p})
	if got := h.DownOfType(core.DFlushOK); len(got) != 1 {
		t.Fatal("no consent after peer done")
	}
	if st := h.G.Focus("VSS").(*vss.Vss).Stats(); st.Flushes != 1 || st.Resent != 2 {
		t.Fatalf("Stats %+v, want 1 flush and 2 resent", st)
	}
}

func TestStabilityTrimsOwnBuffer(t *testing.T) {
	h, p := setup(t)
	h.InjectDown(core.NewCast(message.New([]byte("m1"))))
	h.InjectDown(core.NewCast(message.New([]byte("m2"))))
	// Everyone processed our first message.
	members := []core.EndpointID{h.Self(), p}
	m := core.NewStabilityMatrix(members)
	for j := range members {
		m.Raise(slices.Index(members, h.Self()), j, 1)
	}
	h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: m}})
	h.Reset()
	h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: nil}})
	if fwds, _ := forwards(t, h.Net, h.DownOfType(core.DSend)); len(fwds) != 1 {
		t.Fatalf("resends = %d, want 1 (stable message trimmed)", len(fwds))
	}
}

func TestFwdDeliversAndDedups(t *testing.T) {
	h, p := setup(t)
	var log vslog.Log
	log.Add(p, 1, message.New([]byte("resent")))
	f := doneWith(&log)
	h.InjectUp(&core.Event{Type: core.USend, Msg: f.Clone(), Source: p})
	got := h.UpOfType(core.UCast)
	if len(got) != 1 || string(got[0].Msg.Body()) != "resent" || got[0].ID != (core.MsgID{Origin: p, Seq: 1}) {
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
