package gkey_test

import (
	"bytes"
	"testing"

	"horus/internal/core"
	"horus/internal/layers/gkey"
	"horus/internal/layertest"
	"horus/internal/message"
)

var master = []byte("the group long-term master secret")

func setup(t *testing.T) *layertest.Harness {
	t.Helper()
	h := layertest.New(t, gkey.New(master))
	h.InstallView(h.Self(), layertest.ID("p", 2))
	h.Reset()
	return h
}

func TestEncryptDecryptWithinView(t *testing.T) {
	h := setup(t)
	h.InjectDown(core.NewCast(message.New([]byte("rekeyed secret"))))
	sent := h.LastDown()
	h.InjectUp(&core.Event{Type: core.UCast, Msg: sent.Msg.Clone(), Source: layertest.ID("p", 2)})
	got := h.LastUp()
	if got == nil || string(got.Msg.Body()) != "rekeyed secret" {
		t.Fatalf("round trip failed: %v", got)
	}
}

func TestCiphertextHidden(t *testing.T) {
	h := setup(t)
	plain := []byte("very recognizable plaintext content here")
	h.InjectDown(core.NewCast(message.New(plain)))
	if bytes.Contains(h.LastDown().Msg.Marshal(), plain[:16]) {
		t.Fatal("plaintext on the wire")
	}
}

func TestRekeyOnViewChange(t *testing.T) {
	h := setup(t)
	// Capture ciphertext under view 1's key.
	h.InjectDown(core.NewCast(message.New([]byte("old view traffic"))))
	old := h.LastDown().Msg.Clone()

	// View 2 installs: the layer rekeys.
	v2 := core.NewView(core.ViewID{Seq: 2, Coord: h.Self()}, "test",
		[]core.EndpointID{h.Self()})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v2}})
	l := h.G.Focus("GKEY").(*gkey.Gkey)
	if l.Stats().Rekeys != 2 { // view 1 + view 2
		t.Fatalf("Rekeys = %d, want 2", l.Stats().Rekeys)
	}

	// Old-view ciphertext no longer decrypts.
	h.Reset()
	h.InjectUp(&core.Event{Type: core.UCast, Msg: old, Source: layertest.ID("p", 2)})
	for _, ev := range h.UpOfType(core.UCast) {
		if string(ev.Msg.Body()) == "old view traffic" {
			t.Fatal("old view's traffic decrypted under the new key")
		}
	}
}

func TestSameViewSameKeyAcrossMembers(t *testing.T) {
	// Two independent instances sharing the master derive the same key
	// from the same view: one's ciphertext decrypts at the other.
	a := layertest.New(t, gkey.New(master))
	b := layertest.New(t, gkey.New(master))
	v := core.NewView(core.ViewID{Seq: 7, Coord: layertest.ID("c", 1)}, "g",
		[]core.EndpointID{layertest.ID("c", 1)})
	a.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v}})
	b.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v}})

	a.InjectDown(core.NewCast(message.New([]byte("cross"))))
	ct := a.LastDown().Msg.Clone()
	b.InjectUp(&core.Event{Type: core.UCast, Msg: ct, Source: layertest.ID("c", 1)})
	got := b.LastUp()
	if got == nil || string(got.Msg.Body()) != "cross" {
		t.Fatalf("cross-member decryption failed: %v", got)
	}
}

func TestCastBeforeFirstViewErrors(t *testing.T) {
	h := layertest.New(t, gkey.New(master))
	h.InjectDown(core.NewCast(message.New([]byte("too soon"))))
	if got := h.UpOfType(core.USystemError); len(got) != 1 {
		t.Fatalf("no SYSTEM_ERROR before the first key: %v", got)
	}
	if got := h.DownOfType(core.DCast); len(got) != 0 {
		t.Fatal("plaintext escaped before the first key")
	}
}

func TestEmptyMasterFailsInit(t *testing.T) {
	h := layertest.New(t, gkey.New(master))
	ep := h.Net.NewEndpoint("x")
	if _, err := ep.Join("g", core.StackSpec{gkey.New(nil)}, nil); err == nil {
		t.Fatal("empty master accepted")
	}
}
