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
	kAcks = 3 // ack-vector gossip {view ID, counts in rank order} (vslog.PushVector)
)

// AckPeriod is the ack-gossip interval.
const AckPeriod = 20 * time.Millisecond

// New returns a STABLE layer.
func New() core.Layer { return &Stable{} }

// Stable is one STABLE layer instance.
type Stable struct {
	core.Base

	view   *core.View
	ledger vslog.Ledger // the stamp, the application's acks and the matrix, shared with PINWHEEL

	dirty  bool               // local acks advanced since last gossip
	gossip core.Timer[Stable] // the ack round (gossipTick)
	counts []uint64           // the vector of the round in progress, refilled each round
	others []core.EndpointID  // view members except self; replaced, never edited, by applyView
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
	st.Stamped = int(s.ledger.Sent)
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
		s.ledger.Stamp(ev.Msg)
		ev.Msg.PushUint8(kData)
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
			s.ledger.Identify(ev)
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

// gossipTick sends the other members our ack vector: the acked count of
// each member of the view, in rank order, under the view's ID.
func (s *Stable) gossipTick() {
	s.gossip.Reset(AckPeriod)
	if s.view == nil || s.view.Size() < 2 || !s.dirty {
		return
	}
	s.dirty = false
	counts := s.counts[:0]
	for _, o := range s.view.Members {
		counts = append(counts, s.ledger.Acked(o))
	}
	s.counts = counts
	s.stats.GossipsSent++
	ev := s.Ctx.NewDowncall(core.DSend, s.others, wire.CountsLen(counts))
	vslog.PushVector(ev.Msg, s.view.ID, counts, s.Ctx.Directory())
	ev.Msg.PushUint8(kAcks)
	s.Ctx.Down(ev)
}

// receiveAcks raises the sender's column of the matrix to its ack
// vector, read where it lies; a vector sent in another view raises
// nothing, and the sender gossips again in ours once it installs it.
func (s *Stable) receiveAcks(ev *core.Event) {
	if vslog.RaiseVector(ev.Msg, s.view, s.ledger.Matrix, ev.Source, s.Ctx.Directory()) {
		s.ledger.Report()
	}
}

// applyView rebases the matrix onto the new membership and gossips
// this member's acks to it. The gossip's destination list is built
// here, once per view: a send borrows it, so it is replaced, never
// written to.
func (s *Stable) applyView(v *core.View) {
	s.view = v
	s.others = make([]core.EndpointID, 0, len(v.Members))
	for _, e := range v.Members {
		if e != s.Ctx.Self() {
			s.others = append(s.others, e)
		}
	}
	s.ledger.View(v)
	s.dirty = true
}

func (s *Stable) dumpLine() string {
	return fmt.Sprintf("sent=%d acks=%d gossips=%d updates=%d",
		s.ledger.Sent, s.stats.AcksApplied, s.stats.GossipsSent, s.ledger.Updates)
}
