// Package crypt implements the encryption layer (Figure 1: "private
// communication"; §11 mentions the Horus security architecture that
// combines encryption with fault tolerance).
//
// The layer encrypts the entire message content — upper-layer headers
// and body — under AES-CTR with a per-message random nonce, so layers
// below see only ciphertext. Like SIGN, it assumes a pre-shared group
// key; Figure 1's "key distribution" protocol type is out of scope.
// CRYPT provides confidentiality only; stack SIGN above it for
// integrity.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"

	"horus/internal/core"
	"horus/internal/message"
)

// Crypt is one encryption layer instance.
type Crypt struct {
	core.Base
	keyBytes []byte
	block    cipher.Block
	stats    Stats
}

// Stats counts encryption activity.
type Stats struct {
	Encrypted int
	Decrypted int
	Rejected  int // undecodable arrivals dropped
}

// New returns a factory for encryption layers sharing key (16, 24 or
// 32 bytes for AES-128/192/256).
func New(key []byte) core.Factory {
	k := append([]byte(nil), key...)
	return func() core.Layer { return &Crypt{keyBytes: k} }
}

// Name implements core.Layer.
func (c *Crypt) Name() string { return "CRYPT" }

// Stats returns a snapshot of the layer's counters.
func (c *Crypt) Stats() Stats { return c.stats }

// Init implements core.Layer.
func (c *Crypt) Init(ctx *core.Context) error {
	if err := c.Base.Init(ctx); err != nil {
		return err
	}
	block, err := aes.NewCipher(c.keyBytes)
	if err != nil {
		return fmt.Errorf("crypt: %w", err)
	}
	c.block = block
	return nil
}

// Down implements core.Layer.
func (c *Crypt) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend, core.DLocate:
		plain := ev.Msg.Marshal()
		nonce := make([]byte, aes.BlockSize)
		if _, err := rand.Read(nonce); err != nil {
			c.Ctx.Up(&core.Event{Type: core.USystemError, Detail: &core.Detail{Reason: "crypt: nonce: " + err.Error()}})
			return
		}
		out := make([]byte, len(plain))
		cipher.NewCTR(c.block, nonce).XORKeyStream(out, plain)
		m := message.New(out)
		m.Push(nonce)
		ev.Msg = m
		c.stats.Encrypted++
		c.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("CRYPT: enc=%d dec=%d rej=%d",
			c.stats.Encrypted, c.stats.Decrypted, c.stats.Rejected))
		c.Ctx.Down(ev)
	default:
		c.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (c *Crypt) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend, core.ULocate:
		if ev.Msg.HeaderLen() < aes.BlockSize {
			c.stats.Rejected++
			return
		}
		nonce := append([]byte(nil), ev.Msg.Pop(aes.BlockSize)...)
		body := ev.Msg.Body()
		plain := make([]byte, len(body))
		cipher.NewCTR(c.block, nonce).XORKeyStream(plain, body)
		inner, err := message.Unmarshal(plain)
		if err != nil {
			c.stats.Rejected++
			return
		}
		ev.Msg = inner
		c.stats.Decrypted++
		c.Ctx.Up(ev)
	default:
		c.Ctx.Up(ev)
	}
}
