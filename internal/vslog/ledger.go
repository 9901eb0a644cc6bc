package vslog

import "horus/internal/core"

// Ledger is the stability book STABLE and PINWHEEL share (§9): the
// casts this member's application acknowledged and the stability matrix
// they are folded into. The two layers differ only in how the matrix
// travels — STABLE gossips each member's acked counts, PINWHEEL passes
// the whole matrix round the view — so the acks, the fold and the
// rebuild at a view are kept here once.
type Ledger struct {
	Matrix  *core.StabilityMatrix // nil before the first view
	Updates int                   // STABLE upcalls reported

	ctx   *core.Context
	acked Delivered // the application's acks, per origin
}

// Init binds the ledger to its layer's context.
func (l *Ledger) Init(c *core.Context) { l.ctx = c }

// Ack records that the application processed id and folds it in. It
// reports whether the ack was new; an ack without an identity is not.
func (l *Ledger) Ack(id core.MsgID) bool {
	if id.Origin.IsZero() || id.Seq == 0 || l.acked.Has(id.Origin, id.Seq) {
		return false
	}
	l.acked.Add(id.Origin, id.Seq)
	l.Fold()
	return true
}

// Acked returns how many of origin's casts were acknowledged without a
// gap: the count this member reports for origin.
func (l *Ledger) Acked(origin core.EndpointID) uint64 { return l.acked.Count(origin) }

// Raise lifts the matrix entry for origin's casts processed by member
// to n. It reports whether the entry rose, which it cannot for a pair
// outside the matrix.
func (l *Ledger) Raise(origin, member core.EndpointID, n uint64) bool {
	i, j := l.Matrix.Index(origin), l.Matrix.Index(member)
	if i < 0 || j < 0 || l.Matrix.Acked[i][j] >= n {
		return false
	}
	l.Matrix.Acked[i][j] = n
	return true
}

// Fold raises this member's entries to its acked counts, over the
// matrix's members, and reports the matrix once if any rose.
func (l *Ledger) Fold() {
	if l.Matrix == nil {
		return
	}
	changed := false
	for _, origin := range l.Matrix.Members {
		if l.Raise(origin, l.ctx.Self(), l.acked.Count(origin)) {
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

// View rebuilds the matrix over v's members, keeping what the old one
// knew of those still there, and folds. Acks are kept across views:
// message identities are continuous.
func (l *Ledger) View(v *core.View) {
	old := l.Matrix
	l.Matrix = core.NewStabilityMatrix(v.Members)
	if old != nil {
		l.Matrix.MergeFrom(old)
	}
	l.Fold()
}
