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

	view    *core.View
	sendSeq uint64

	ackPrefix map[core.EndpointID]uint64
	ackSparse map[core.MsgID]bool
	matrix    *core.StabilityMatrix

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
func (p *Pinwheel) Stats() Stats { return p.stats }

// Matrix returns the current stability matrix (nil before the first
// view).
func (p *Pinwheel) Matrix() *core.StabilityMatrix { return p.matrix }

// Init implements core.Layer.
func (p *Pinwheel) Init(c *core.Context) error {
	if err := p.Base.Init(c); err != nil {
		return err
	}
	p.ackPrefix = make(map[core.EndpointID]uint64)
	p.ackSparse = make(map[core.MsgID]bool)
	p.hold.Bind(c, p, (*Pinwheel).passToken)
	p.watchdog.Bind(c, p, (*Pinwheel).regenerate)
	return nil
}

// Down implements core.Layer.
func (p *Pinwheel) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		p.sendSeq++
		ev.Msg.PushUint(p.sendSeq)
		ev.Msg.PushUint8(kData)
		p.stats.Stamped++
		p.Ctx.Down(ev)
	case core.DSend:
		ev.Msg.PushUint8(kSend)
		p.Ctx.Down(ev)
	case core.DAck:
		p.applyAck(ev.ID)
	case core.DStable:
		// Garbage-collection hint; nothing retained here.
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("PINWHEEL: sent=%d tokens=%d updates=%d regen=%d",
			p.sendSeq, p.stats.TokenSent, p.stats.Updates, p.stats.Regenerated))
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
			seq := ev.Msg.PopUint()
			ev.ID = core.MsgID{Origin: ev.Source, Seq: seq}
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

func (p *Pinwheel) applyAck(id core.MsgID) {
	if id.Origin.IsZero() || id.Seq == 0 {
		return
	}
	if id.Seq <= p.ackPrefix[id.Origin] || p.ackSparse[id] {
		return
	}
	p.stats.AcksApplied++
	p.ackSparse[id] = true
	for p.ackSparse[core.MsgID{Origin: id.Origin, Seq: p.ackPrefix[id.Origin] + 1}] {
		p.ackPrefix[id.Origin]++
		delete(p.ackSparse, core.MsgID{Origin: id.Origin, Seq: p.ackPrefix[id.Origin]})
	}
	p.foldLocal()
}

// foldLocal merges our own acks into the matrix, reporting changes.
func (p *Pinwheel) foldLocal() {
	if p.matrix == nil {
		return
	}
	changed := false
	for origin, count := range p.ackPrefix {
		if p.matrix.Get(origin, p.Ctx.Self()) < count {
			p.matrix.Set(origin, p.Ctx.Self(), count)
			changed = true
		}
	}
	if changed {
		p.stats.Updates++
		p.Ctx.Up(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: p.matrix.Clone()}})
	}
}

// receiveToken merges the rotating matrix and schedules the pass-on.
func (p *Pinwheel) receiveToken(ev *core.Event) {
	members := wire.PopIDList(ev.Msg)
	if p.matrix == nil {
		return
	}
	incoming := core.NewStabilityMatrix(members)
	for i := range members {
		row := wire.PopCounts(ev.Msg)
		if len(row) != len(members) {
			return
		}
		copy(incoming.Acked[i], row)
	}
	changed := false
	for i, origin := range members {
		for j, member := range members {
			if p.matrix.Get(origin, member) < incoming.Acked[i][j] {
				p.matrix.Set(origin, member, incoming.Acked[i][j])
				changed = true
			}
		}
	}
	p.foldLocal()
	if changed {
		p.stats.Updates++
		p.Ctx.Up(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: p.matrix.Clone()}})
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
	if p.view == nil || p.view.Size() < 2 || p.matrix == nil {
		return
	}
	myRank := p.view.Rank(p.Ctx.Self())
	if myRank < 0 {
		return
	}
	next := p.view.Members[(myRank+1)%p.view.Size()]
	size := wire.IDListLen(p.matrix.Members)
	for _, row := range p.matrix.Acked {
		size += wire.CountsLen(row)
	}
	ev := core.NewSendTo(next, size)
	for i := len(p.matrix.Members) - 1; i >= 0; i-- {
		wire.PushCounts(ev.Msg, p.matrix.Acked[i])
	}
	wire.PushIDList(ev.Msg, p.matrix.Members)
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

// applyView resets the matrix over the new membership and restarts the
// rotation from the lowest-ranked member.
func (p *Pinwheel) applyView(v *core.View) {
	p.view = v
	old := p.matrix
	p.matrix = core.NewStabilityMatrix(v.Members)
	if old != nil {
		p.matrix.MergeFrom(old)
	}
	p.foldLocal()
	p.hold.Stop()
	p.watchdog.Stop()
	if v.Size() >= 2 && v.Rank(p.Ctx.Self()) == 0 {
		p.hold.Reset(Hold)
	}
}
