// Package gkey implements a group-keying layer: the §11 remark that
// the Horus security architecture "combines security features with
// fault-tolerance" made concrete. Instead of one static key (package
// crypt), GKEY derives a fresh traffic key for every view from a
// pre-shared group master secret and the view identity:
//
//	K(view) = SHA-256(master || view coordinator || view sequence)
//
// Because the view identity is agreed by the membership layer below,
// every member of a view derives the identical key with no extra
// key-agreement protocol — and a member excluded by a view change
// cannot decrypt traffic of any later view it was not admitted to
// (it never learns the new view identity as a member, and without the
// master it cannot enumerate keys... the master is the long-term
// group credential; exclusion protects against *non-members* who
// captured an old traffic key, the classical rationale for rekeying
// on membership change).
//
// GKEY sits above the membership layer (it consumes VIEW upcalls) and
// encrypts whole message contents with AES-CTR under the current view
// key. Messages from other epochs fail decryption and are dropped —
// which doubles as a cryptographic enforcement of the epoch discipline.
//
// Properties: requires P9, P15 (agreed views); inherits the rest.
package gkey

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"horus/internal/core"
	"horus/internal/message"
)

// Gkey is one group-keying layer instance.
type Gkey struct {
	core.Base
	master []byte
	block  cipher.Block // derived for the current view
	keyGen uint64       // view seq the key was derived from
	stats  Stats
}

// Stats counts keying activity.
type Stats struct {
	Rekeys    int
	Encrypted int
	Decrypted int
	Rejected  int
}

// New returns a factory for group-keying layers sharing the master
// secret.
func New(master []byte) core.Factory {
	m := append([]byte(nil), master...)
	return func() core.Layer { return &Gkey{master: m} }
}

// Name implements core.Layer.
func (g *Gkey) Name() string { return "GKEY" }

// Stats returns a snapshot of the layer's counters.
func (g *Gkey) Stats() Stats { return g.stats }

// Init implements core.Layer.
func (g *Gkey) Init(c *core.Context) error {
	if err := g.Base.Init(c); err != nil {
		return err
	}
	if len(g.master) == 0 {
		return fmt.Errorf("gkey: empty master secret")
	}
	return nil
}

// rekey derives the traffic key for view v.
func (g *Gkey) rekey(v *core.View) error {
	h := sha256.New()
	h.Write(g.master)
	h.Write([]byte(v.ID.Coord.Site))
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], v.ID.Coord.Birth)
	binary.BigEndian.PutUint64(buf[8:], v.ID.Seq)
	h.Write(buf[:])
	block, err := aes.NewCipher(h.Sum(nil)) // AES-256 under the digest
	if err != nil {
		return err
	}
	g.block = block
	g.keyGen = v.ID.Seq
	g.stats.Rekeys++
	return nil
}

// Down implements core.Layer.
func (g *Gkey) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend:
		if g.block == nil {
			g.Ctx.Up(&core.Event{Type: core.USystemError,
				Detail: &core.Detail{Reason: "gkey: transmission before the first view key"}})
			return
		}
		plain := ev.Msg.Marshal()
		nonce := make([]byte, aes.BlockSize)
		if _, err := rand.Read(nonce); err != nil {
			g.Ctx.Up(&core.Event{Type: core.USystemError, Detail: &core.Detail{Reason: "gkey: nonce: " + err.Error()}})
			return
		}
		out := make([]byte, len(plain))
		cipher.NewCTR(g.block, nonce).XORKeyStream(out, plain)
		m := message.New(out)
		m.Push(nonce)
		ev.Msg = m
		g.stats.Encrypted++
		g.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("GKEY: gen=%d rekeys=%d enc=%d dec=%d rej=%d",
			g.keyGen, g.stats.Rekeys, g.stats.Encrypted, g.stats.Decrypted, g.stats.Rejected))
		g.Ctx.Down(ev)
	default:
		g.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (g *Gkey) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend:
		if g.block == nil || ev.Msg.HeaderLen() < aes.BlockSize {
			g.stats.Rejected++
			return
		}
		nonce := append([]byte(nil), ev.Msg.Pop(aes.BlockSize)...)
		body := ev.Msg.Body()
		plain := make([]byte, len(body))
		cipher.NewCTR(g.block, nonce).XORKeyStream(plain, body)
		inner, err := message.Unmarshal(plain)
		if err != nil {
			// Wrong key (another view's traffic) or damage: drop.
			g.stats.Rejected++
			return
		}
		ev.Msg = inner
		g.stats.Decrypted++
		g.Ctx.Up(ev)
	case core.UView:
		if err := g.rekey(ev.View); err != nil {
			g.Ctx.Up(&core.Event{Type: core.USystemError, Detail: &core.Detail{Reason: "gkey: " + err.Error()}})
			return
		}
		g.Ctx.Up(ev)
	default:
		g.Ctx.Up(ev)
	}
}
