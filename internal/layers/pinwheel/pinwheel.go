// Package pinwheel implements the PINWHEEL layer: an alternative
// provider of stability information (property P14).
//
// Where STABLE has every member gossip its ack vector to every other
// member (n messages per period, matrix converges in one hop),
// PINWHEEL rotates a single token around the view like the arms of a
// pinwheel. The token carries the full stability matrix; each member
// folds in its local acknowledgements, reports changes upward, and
// passes the token to the next member in rank order after a hold
// period. One message per period total, at the cost of O(n) periods
// for information to reach everyone — the trade the paper alludes to
// when it says an application can choose "whether STABLE or PINWHEEL
// will be optimal" (§10). `go run ./cmd/horus-bench stability`
// quantifies it; TestPinwheelMatrixConverges (integration) pins that
// the token spreads the matrix to everyone.
//
// Properties: requires P3, P8, P9, P10, P15; provides P14.
package pinwheel

import (
	"fmt"
	"time"

	"horus/internal/core"
	"horus/internal/vslog"
	"horus/internal/wire"
)

// Wire kinds.
const (
	kData  = 1 // stamped multicast {seq}
	kSend  = 2 // subset send pass-through
	kToken = 3 // rotating matrix token {members, rows...}
)

// Hold is how long each member holds the token before passing it on.
const Hold = 20 * time.Millisecond

// New returns a PINWHEEL layer.
func New() core.Layer { return &Pinwheel{} }

// Pinwheel is one PINWHEEL layer instance.
type Pinwheel struct {
	core.Base

	view   *core.View
	ledger vslog.Ledger // the stamp, the application's acks and the matrix, shared with STABLE

	hold     core.Timer[Pinwheel] // the token's pass-on wait (passToken)
	watchdog core.Timer[Pinwheel] // lost-token regeneration at rank 0 (regenerate)
	stats    Stats
}

// Stats counts PINWHEEL activity.
type Stats struct {
	Stamped     int
	AcksApplied int
	TokenSent   int
	Updates     int
	Regenerated int // tokens recreated by the watchdog
}

// Name implements core.Layer.
func (p *Pinwheel) Name() string { return "PINWHEEL" }

// Stats returns a snapshot of the layer's counters.
func (p *Pinwheel) Stats() Stats {
	st := p.stats
	st.Stamped = int(p.ledger.Sent)
	st.Updates = p.ledger.Updates
	return st
}

// Matrix returns the current stability matrix (nil before the first
// view).
func (p *Pinwheel) Matrix() *core.StabilityMatrix { return p.ledger.Matrix }

// Init implements core.Layer.
func (p *Pinwheel) Init(c *core.Context) error {
	if err := p.Base.Init(c); err != nil {
		return err
	}
	p.ledger.Init(c)
	p.hold.Bind(c, p, (*Pinwheel).passToken)
	p.watchdog.Bind(c, p, (*Pinwheel).regenerate)
	return nil
}

// Down implements core.Layer.
func (p *Pinwheel) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		p.ledger.Stamp(ev.Msg)
		ev.Msg.PushUint8(kData)
		p.Ctx.Down(ev)
	case core.DSend:
		ev.Msg.PushUint8(kSend)
		p.Ctx.Down(ev)
	case core.DAck:
		if p.ledger.Ack(ev.ID) {
			p.stats.AcksApplied++
		}
	case core.DStable:
		// Garbage-collection hint; nothing retained here.
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("PINWHEEL: sent=%d tokens=%d updates=%d regen=%d",
			p.ledger.Sent, p.stats.TokenSent, p.ledger.Updates, p.stats.Regenerated))
		p.Ctx.Down(ev)
	default:
		p.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (p *Pinwheel) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		kind := ev.Msg.PopUint8()
		switch kind {
		case kData:
			p.ledger.Identify(ev)
			p.Ctx.Up(ev)
		case kToken:
			p.receiveToken(ev)
		}
	case core.USend:
		kind := ev.Msg.PopUint8()
		switch kind {
		case kSend:
			p.Ctx.Up(ev)
		case kToken:
			p.receiveToken(ev)
		}
	case core.UView:
		p.applyView(ev.View)
		p.Ctx.Up(ev)
	default:
		p.Ctx.Up(ev)
	}
}

// receiveToken merges the rotating matrix and schedules the pass-on.
// A token with a row of the wrong length raises nothing; otherwise each
// of its members is resolved to a rank in our view once and its rows
// are raised into ours where they lie.
func (p *Pinwheel) receiveToken(ev *core.Event) {
	members := wire.PopIDList(ev.Msg, nil, p.Ctx.Directory())
	if p.ledger.Matrix == nil {
		return
	}
	rows, rank := make([][]uint64, len(members)), make([]int, len(members))
	for k, e := range members {
		rows[k], rank[k] = wire.PopCounts(ev.Msg), p.view.Rank(e)
		if len(rows[k]) != len(members) {
			return
		}
	}
	changed := false
	for k, row := range rows {
		for l, n := range row {
			if i, j := rank[k], rank[l]; i >= 0 && j >= 0 && p.ledger.Matrix.Raise(i, j, n) {
				changed = true
			}
		}
	}
	p.ledger.Fold()
	if changed {
		p.ledger.Report()
	}
	p.scheduleHold()
}

// scheduleHold arms the pass-on timer. A pass already pending carries
// this update too.
func (p *Pinwheel) scheduleHold() {
	if !p.hold.Armed() {
		p.hold.Reset(Hold)
	}
}

// passToken sends the matrix to the next member in rank order.
func (p *Pinwheel) passToken() {
	m := p.ledger.Matrix
	if p.view == nil || p.view.Size() < 2 || m == nil {
		return
	}
	myRank := p.view.Rank(p.Ctx.Self())
	if myRank < 0 {
		return
	}
	next := p.view.Members[(myRank+1)%p.view.Size()]
	dir := p.Ctx.Directory()
	size := wire.IDListLen(m.Members, dir)
	for _, row := range m.Acked {
		size += wire.CountsLen(row)
	}
	ev := p.Ctx.NewSendTo(next, size)
	for i := len(m.Members) - 1; i >= 0; i-- {
		wire.PushCounts(ev.Msg, m.Acked[i])
	}
	wire.PushIDList(ev.Msg, m.Members, dir)
	ev.Msg.PushUint8(kToken)
	p.stats.TokenSent++
	p.Ctx.Down(ev)
	p.armWatchdog()
}

// armWatchdog regenerates a lost token. Only the lowest-ranked member
// regenerates, so loss cannot multiply tokens (modulo a brief overlap
// if the old token was merely slow, which is harmless: matrices are
// merged monotonically).
func (p *Pinwheel) armWatchdog() {
	if p.view == nil || p.view.Rank(p.Ctx.Self()) != 0 {
		return
	}
	p.watchdog.Reset(time.Duration(p.view.Size()*3) * Hold)
}

// regenerate passes a token the watchdog has given up on, unless one
// is being held here.
func (p *Pinwheel) regenerate() {
	if p.hold.Armed() {
		return
	}
	p.stats.Regenerated++
	p.passToken()
}

// applyView rebases the matrix onto the new membership and restarts
// the rotation from the lowest-ranked member.
func (p *Pinwheel) applyView(v *core.View) {
	p.view = v
	p.ledger.View(v)
	p.hold.Stop()
	p.watchdog.Stop()
	if v.Size() >= 2 && v.Rank(p.Ctx.Self()) == 0 {
		p.hold.Reset(Hold)
	}
}
