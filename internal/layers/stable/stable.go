// Package stable implements the STABLE layer: end-to-end message
// stability (paper §9).
//
// A message is stable once it has been *processed* by all its
// surviving destination processes, where "processed" is defined
// entirely by the application: the application calls the ack downcall
// (Group.Ack) when it considers a message handled — displayed,
// logged to disk, safe to delete, whatever its semantics demand. The
// layer spreads this acknowledgement information and reports it with
// STABLE upcalls carrying a stability matrix: entry (i, j) counts how
// many of member i's messages member j has processed. This is the
// paper's answer to the end-to-end argument: a mechanism in the
// communication system whose meaning is controlled by the application.
//
// The layer stamps each outgoing multicast with a per-sender sequence
// number and attaches the resulting MsgID to delivered CAST events, so
// applications can acknowledge precisely.
//
// Properties: requires P3, P4, P8, P10, P11, P12; provides P14.
package stable

import (
	"fmt"
	"time"

	"horus/internal/core"
	"horus/internal/vslog"
	"horus/internal/wire"
)

// Wire kinds.
const (
	kData = 1 // stamped multicast {seq}
	kSend = 2 // subset send pass-through
	kAcks = 3 // ack-vector gossip {origins, counts}
)

// AckPeriod is the ack-gossip interval.
const AckPeriod = 20 * time.Millisecond

// New returns a STABLE layer.
func New() core.Layer { return &Stable{} }

// Stable is one STABLE layer instance.
type Stable struct {
	core.Base

	view    *core.View
	sendSeq uint64
	ledger  vslog.Ledger // the application's acks and the matrix, shared with PINWHEEL

	dirty  bool               // local acks advanced since last gossip
	gossip core.Timer[Stable] // the ack round (gossipTick)
	stats  Stats
}

// Stats counts STABLE activity.
type Stats struct {
	Stamped     int // outgoing casts stamped
	AcksApplied int // ack downcalls processed
	GossipsSent int
	Updates     int // STABLE upcalls emitted
}

// Name implements core.Layer.
func (s *Stable) Name() string { return "STABLE" }

// Stats returns a snapshot of the layer's counters.
func (s *Stable) Stats() Stats {
	st := s.stats
	st.Updates = s.ledger.Updates
	return st
}

// Matrix returns the current stability matrix (nil before the first
// view).
func (s *Stable) Matrix() *core.StabilityMatrix { return s.ledger.Matrix }

// Init implements core.Layer.
func (s *Stable) Init(c *core.Context) error {
	if err := s.Base.Init(c); err != nil {
		return err
	}
	s.ledger.Init(c)
	s.gossip.Bind(c, s, (*Stable).gossipTick)
	s.gossip.Reset(AckPeriod)
	return nil
}

// Down implements core.Layer.
func (s *Stable) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		s.sendSeq++
		ev.Msg.PushUint(s.sendSeq)
		ev.Msg.PushUint8(kData)
		s.stats.Stamped++
		s.Ctx.Down(ev)
	case core.DSend:
		ev.Msg.PushUint8(kSend)
		s.Ctx.Down(ev)
	case core.DAck:
		if s.ledger.Ack(ev.ID) {
			s.stats.AcksApplied++
			s.dirty = true
		}
	case core.DStable:
		// Garbage-collection hint; nothing retained here.
	case core.DDump:
		ev.Dump = append(ev.Dump, "STABLE: "+s.dumpLine())
		s.Ctx.Down(ev)
	default:
		s.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (s *Stable) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		kind := ev.Msg.PopUint8()
		switch kind {
		case kData:
			seq := ev.Msg.PopUint()
			ev.ID = core.MsgID{Origin: ev.Source, Seq: seq}
			s.Ctx.Up(ev)
		case kAcks:
			s.receiveAcks(ev)
		}
	case core.USend:
		kind := ev.Msg.PopUint8()
		switch kind {
		case kSend:
			s.Ctx.Up(ev)
		case kAcks:
			s.receiveAcks(ev)
		}
	case core.UView:
		s.applyView(ev.View)
		s.Ctx.Up(ev)
	default:
		s.Ctx.Up(ev)
	}
}

// gossipTick multicasts our ack vector.
func (s *Stable) gossipTick() {
	s.gossip.Reset(AckPeriod)
	if s.view == nil || s.view.Size() < 2 || !s.dirty {
		return
	}
	s.dirty = false
	origins := s.view.Members
	counts := make([]uint64, len(origins))
	for i, o := range origins {
		counts[i] = s.ledger.Acked(o)
	}
	s.stats.GossipsSent++
	dests := make([]core.EndpointID, 0, len(origins))
	for _, e := range origins {
		if e != s.Ctx.Self() {
			dests = append(dests, e)
		}
	}
	ev := core.NewDowncall(core.DSend, dests, wire.IDListLen(origins)+wire.CountsLen(counts))
	wire.PushCounts(ev.Msg, counts)
	wire.PushIDList(ev.Msg, origins)
	ev.Msg.PushUint8(kAcks)
	s.Ctx.Down(ev)
}

// receiveAcks merges a peer's ack vector into the matrix: the column at
// the sender's rank, each count in the row of its origin's rank. The
// sender's view may list other origins than ours, so each is resolved.
func (s *Stable) receiveAcks(ev *core.Event) {
	origins := wire.PopIDList(ev.Msg)
	counts := wire.PopCounts(ev.Msg)
	if s.ledger.Matrix == nil || len(origins) != len(counts) {
		return
	}
	j := s.view.Rank(ev.Source)
	changed := false
	for k, o := range origins {
		if i := s.view.Rank(o); i >= 0 && j >= 0 && s.ledger.Matrix.Raise(i, j, counts[k]) {
			changed = true
		}
	}
	if changed {
		s.ledger.Report()
	}
}

// applyView rebases the matrix onto the new membership and gossips
// this member's acks to it.
func (s *Stable) applyView(v *core.View) {
	s.view = v
	s.ledger.View(v)
	s.dirty = true
}

func (s *Stable) dumpLine() string {
	return fmt.Sprintf("sent=%d acks=%d gossips=%d updates=%d",
		s.sendSeq, s.stats.AcksApplied, s.stats.GossipsSent, s.ledger.Updates)
}
