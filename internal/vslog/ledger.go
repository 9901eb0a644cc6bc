package vslog

import (
	"horus/internal/core"
	"horus/internal/message"
)

// Ledger is the stability book STABLE and PINWHEEL share (§9): the
// numbers this member stamps its casts with, the casts its application
// acknowledged and the stability matrix they are folded into. The two
// layers differ only in how the matrix travels — STABLE gossips each
// member's acked counts (PushVector), PINWHEEL passes the whole matrix
// round the view — so the stamp, the acks, the fold and the rebase at a
// view are kept here once. The matrix is read and written by rank in the
// view; its writers raise cells through Matrix.Raise.
type Ledger struct {
	Matrix  *core.StabilityMatrix // nil before the first view
	Updates int                   // STABLE upcalls reported
	Sent    uint64                // casts stamped

	ctx   *core.Context
	view  *core.View
	self  int       // this member's rank in view, -1 if it is not in it
	acked Delivered // the application's acks, per origin
}

// Init binds the ledger to its layer's context.
func (l *Ledger) Init(c *core.Context) { l.ctx = c }

// Stamp numbers an outgoing cast: the next number in this member's
// stream goes onto msg, where Identify reads it at each receiver.
func (l *Ledger) Stamp(msg *message.Message) {
	l.Sent++
	msg.PushUint(l.Sent)
}

// Identify pops the number Stamp pushed and names ev by it and its
// source, the identity the application acknowledges it by.
func (l *Ledger) Identify(ev *core.Event) {
	ev.ID = core.MsgID{Origin: ev.Source, Seq: ev.Msg.PopUint()}
}

// Ack records that the application processed id and raises the acked
// origin's entry in this member's column, reporting the matrix if it
// rose. It reports whether the ack was new; an ack without an identity
// is not.
func (l *Ledger) Ack(id core.MsgID) bool {
	if id.Origin.IsZero() || id.Seq == 0 || l.acked.Has(id.Origin, id.Seq) {
		return false
	}
	l.acked.Add(id.Origin, id.Seq)
	if l.Matrix != nil && l.self >= 0 {
		if i := l.view.Rank(id.Origin); i >= 0 && l.Matrix.Raise(i, l.self, l.acked.Count(id.Origin)) {
			l.Report()
		}
	}
	return true
}

// Acked returns how many of origin's casts were acknowledged without a
// gap: the count this member reports for origin.
func (l *Ledger) Acked(origin core.EndpointID) uint64 { return l.acked.Count(origin) }

// Fold raises this member's column to its acked counts and reports the
// matrix once if any entry rose.
func (l *Ledger) Fold() {
	if l.Matrix == nil || l.self < 0 {
		return
	}
	changed := false
	for i, origin := range l.Matrix.Members {
		if l.Matrix.Raise(i, l.self, l.acked.Count(origin)) {
			changed = true
		}
	}
	if changed {
		l.Report()
	}
}

// Report passes a copy of the matrix up in a STABLE upcall.
func (l *Ledger) Report() {
	l.Updates++
	l.ctx.Up(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: l.Matrix.Clone()}})
}

// View rebases the matrix onto v's members, keeping what the old one
// knew of those still there, learns this member's rank in v, and folds.
// Acks are kept across views: message identities are continuous.
func (l *Ledger) View(v *core.View) {
	l.Matrix = l.Matrix.Rebase(v)
	l.view = v
	l.self = v.Rank(l.ctx.Self())
	l.Fold()
}
