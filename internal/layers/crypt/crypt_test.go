package crypt_test

import (
	"bytes"
	"testing"

	"horus/internal/core"
	"horus/internal/layers/crypt"
	"horus/internal/layertest"
	"horus/internal/message"
)

var key = []byte("0123456789abcdef") // AES-128

func TestEncryptDecryptRoundTrip(t *testing.T) {
	h := layertest.New(t, crypt.New(key))
	m := message.New([]byte("attack at dawn"))
	m.PushUint(7) // an upper header must survive too
	h.InjectDown(core.NewCast(m))
	sent := h.LastDown()
	h.InjectUp(&core.Event{Type: core.UCast, Msg: sent.Msg.Clone(), Source: layertest.ID("peer", 2)})
	got := h.LastUp()
	if got == nil || string(got.Msg.Body()) != "attack at dawn" {
		t.Fatalf("decryption failed: %v", got)
	}
	if v := got.Msg.PopUint(); v != 7 {
		t.Errorf("upper header = %d, want 7", v)
	}
}

func TestCiphertextHidesPlaintext(t *testing.T) {
	h := layertest.New(t, crypt.New(key))
	plain := []byte("attack at dawn, again and again and again")
	h.InjectDown(core.NewCast(message.New(plain)))
	wire := h.LastDown().Msg.Marshal()
	if bytes.Contains(wire, plain) || bytes.Contains(wire, plain[:14]) {
		t.Fatal("plaintext visible on the wire")
	}
}

func TestFreshNoncePerMessage(t *testing.T) {
	h := layertest.New(t, crypt.New(key))
	h.InjectDown(core.NewCast(message.New([]byte("same"))))
	w1 := h.LastDown().Msg.Marshal()
	h.InjectDown(core.NewCast(message.New([]byte("same"))))
	w2 := h.LastDown().Msg.Marshal()
	if bytes.Equal(w1, w2) {
		t.Fatal("identical ciphertexts for identical plaintexts (nonce reuse)")
	}
}

func TestWrongKeyRejects(t *testing.T) {
	a := layertest.New(t, crypt.New(key))
	a.InjectDown(core.NewCast(message.New([]byte("for the right key"))))
	ct := a.LastDown().Msg.Clone()

	b := layertest.New(t, crypt.New([]byte("fedcba9876543210")))
	b.InjectUp(&core.Event{Type: core.UCast, Msg: ct, Source: layertest.ID("peer", 2)})
	if got := b.UpOfType(core.UCast); len(got) != 0 {
		t.Fatal("wrong-key decryption delivered something")
	}
}

func TestBadKeySizeFailsInit(t *testing.T) {
	net := layertest.New(t, crypt.New(key)).Net
	ep := net.NewEndpoint("x")
	if _, err := ep.Join("g", core.StackSpec{crypt.New([]byte("short"))}, nil); err == nil {
		t.Fatal("bad key size accepted")
	}
}
