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
// seals whole message contents under the current view key by running
// a CRYPT layer (package crypt: AES-GCM) keyed with it. Messages from
// other epochs fail authentication and are dropped — which doubles as
// a cryptographic enforcement of the epoch discipline.
//
// Properties: requires P9, P15 (agreed views); inherits the rest.
package gkey

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"horus/internal/core"
	"horus/internal/layers/crypt"
)

// Gkey is one group-keying layer instance.
type Gkey struct {
	core.Base
	master []byte
	crypt  *crypt.Crypt // CRYPT under the current view's key, on this layer's context
	keyGen uint64       // view seq the key was derived from
	stats  Stats        // with the counts of earlier views' CRYPT instances
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
func (g *Gkey) Stats() Stats {
	s := g.stats
	if g.crypt != nil {
		c := g.crypt.Stats()
		s.Encrypted += c.Encrypted
		s.Decrypted += c.Decrypted
		s.Rejected += c.Rejected
	}
	return s
}

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
	c := crypt.New(h.Sum(nil))().(*crypt.Crypt) // AES-256 under the digest
	if err := c.Init(g.Ctx); err != nil {
		return err
	}
	g.stats = g.Stats()
	g.crypt = c
	g.keyGen = v.ID.Seq
	g.stats.Rekeys++
	return nil
}

// Down implements core.Layer.
func (g *Gkey) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend:
		if g.crypt == nil {
			g.Ctx.Up(&core.Event{Type: core.USystemError,
				Detail: &core.Detail{Reason: "gkey: transmission before the first view key"}})
			return
		}
		g.crypt.Down(ev)
	case core.DDump:
		st := g.Stats()
		ev.Dump = append(ev.Dump, fmt.Sprintf("GKEY: gen=%d rekeys=%d enc=%d dec=%d rej=%d",
			g.keyGen, st.Rekeys, st.Encrypted, st.Decrypted, st.Rejected))
		g.Ctx.Down(ev)
	default:
		g.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (g *Gkey) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend:
		if g.crypt == nil {
			g.stats.Rejected++
			return
		}
		g.crypt.Up(ev)
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
