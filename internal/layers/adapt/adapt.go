// Package adapt implements the ADAPT layer: an adaptive load-shedding
// regulator that closes the control loop between failure detection and
// congestion. It is the first consumer of the two feedback channels
// this codebase threads into the composition framework beyond the
// paper's Table 2: graded SUSPECT upcalls from the φ-accrual detector
// below it, and the fabric's per-host egress ledger surfaced through
// core.Context.EgressFeedback.
//
// Placement: directly below the application, above FC (and everything
// else) — ADAPT regulates application traffic only, never the control
// traffic of the layers beneath it. Its control law is AIMD on an
// openness level o ∈ [minLevel, 1]:
//
//   - Multiplicative decrease (×1/2) when the local egress ledger
//     shows new CollapseDropped frames or a backlog past the high
//     water mark, or when the worst φ among current view members
//     reaches phiHigh — congestion and suspected-peer pressure are
//     treated as the same signal, because a member drowning in our
//     retransmissions looks exactly like a member about to fail.
//   - Additive increase (+step per tick) back toward 1 when the
//     bucket is drained, no new drops appeared, and every member's φ
//     is below phiLow.
//
// While o = 1 and nothing is queued, casts pass through untouched —
// the layer costs one call. While o < 1, casts are paced at o×burst
// per tick through a bounded queue; when the queue is full
// (or the ledger shows collapse drops) the lowest-Priority queued
// casts are shed with a LOST_MESSAGE upcall, so cheap traffic is
// sacrificed to keep urgent traffic's latency bounded instead of
// letting the fabric collapse on all of it — graceful degradation.
//
// Suspicion throttles per destination: a multicast is paced by the
// worst (most suspected) member of the view it addresses, a send by
// the worst of its explicit destinations. A member the view drops
// stops counting immediately.
//
// Properties: requires reliable FIFO beneath it (P3+P4+P11) so that
// what it admits is actually delivered — shedding is only meaningful
// when not-shedding means delivery; provides nothing new; inherits
// everything (pacing reorders nothing: admitted casts leave in
// admission order).
package adapt

import (
	"fmt"
	"time"

	"horus/internal/core"
)

// Defaults; override with Options.
const (
	defaultQueueCap = 64
	defaultBurst    = 4.0 // casts per tick at o=1 while paced
)

// The control law's constants.
const (
	tickEvery   = 10 * time.Millisecond // feedback polled, level adjusted, paced queue drained
	minLevel    = 0.05                  // openness floor: the trickle that keeps probing the fabric
	phiLow      = 2.0                   // full rate below this φ
	phiHigh     = 8.0                   // minimum rate at/above this φ
	backlogHigh = 2048                  // egress backlog (bytes) forcing a decrease

	decreaseFactor = 0.5
	increaseStep   = 0.05
)

// Option configures the layer.
type Option func(*Adapt)

// WithQueueCap bounds the paced queue; beyond it the lowest-priority
// cast is shed.
func WithQueueCap(n int) Option { return func(a *Adapt) { a.queueCap = n } }

// WithBurst sets how many casts may launch per tick at full openness
// while pacing is engaged.
func WithBurst(b float64) Option { return func(a *Adapt) { a.burst = b } }

// New returns an ADAPT layer with default configuration.
func New() core.Layer { return newAdapt() }

// NewWith returns a factory with options applied.
func NewWith(opts ...Option) core.Factory {
	return func() core.Layer {
		a := newAdapt()
		for _, o := range opts {
			o(a)
		}
		return a
	}
}

func newAdapt() *Adapt {
	return &Adapt{
		queueCap: defaultQueueCap,
		burst:    defaultBurst,
		level:    1,
	}
}

// Stats counts ADAPT activity.
type Stats struct {
	Shed      int // casts dropped (queue overflow or collapse purge)
	Throttled int // casts that waited in the paced queue
	Decreases int // multiplicative decreases of the level
	Increases int // additive increases of the level
}

// Adapt is one ADAPT layer instance.
type Adapt struct {
	core.Base

	queueCap int
	burst    float64

	members []core.EndpointID
	phi     map[core.EndpointID]float64

	level     float64
	credit    float64
	queue     []*core.Event
	lastDrops uint64
	hasLedger bool

	tickCancel func()
	destroyed  bool
	stats      Stats
}

// Name implements core.Layer.
func (a *Adapt) Name() string { return "ADAPT" }

// Stats returns a snapshot of the layer's counters.
func (a *Adapt) Stats() Stats { return a.stats }

// Level returns the current AIMD openness level (for tests, dumps,
// and the chaos CLI).
func (a *Adapt) Level() float64 { return a.level }

// QueueLen returns the number of casts currently paced.
func (a *Adapt) QueueLen() int { return len(a.queue) }

// Quiescent implements core.Quiescer for the SWITCH reconfiguration
// protocol: the sending side is quiescent when the paced queue is
// empty; the layer buffers nothing on the delivery side.
func (a *Adapt) Quiescent(down bool) bool {
	return !down || len(a.queue) == 0
}

// Init implements core.Layer.
func (a *Adapt) Init(c *core.Context) error {
	if err := a.Base.Init(c); err != nil {
		return err
	}
	a.phi = make(map[core.EndpointID]float64)
	a.tickCancel = c.SetTimer(tickEvery, a.tick)
	return nil
}

// Down implements core.Layer.
func (a *Adapt) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend:
		a.admit(ev)
	case core.DView:
		a.applyView(ev.View)
		a.Ctx.Down(ev)
	case core.DDestroy:
		a.destroyed = true
		if a.tickCancel != nil {
			a.tickCancel()
			a.tickCancel = nil
		}
		a.queue = nil
		a.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, "ADAPT: "+a.dumpLine())
		a.Ctx.Down(ev)
	default:
		a.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (a *Adapt) Up(ev *core.Event) {
	switch ev.Type {
	case core.USuspect:
		// Track the graded suspicion and pass it on — applications and
		// the failure service above still want the signal.
		a.phi[ev.Source] = ev.Phi
		a.Ctx.Up(ev)
	case core.UView:
		a.applyView(ev.View)
		a.Ctx.Up(ev)
	default:
		a.Ctx.Up(ev)
	}
}

// admit gates one application message: pass-through when fully open
// with nothing queued, otherwise into the bounded paced queue, from
// which tick launches at the controlled rate and overflow sheds the
// cheapest entry.
func (a *Adapt) admit(ev *core.Event) {
	if a.openness(ev) >= 1 && len(a.queue) == 0 {
		a.Ctx.Down(ev)
		return
	}
	a.stats.Throttled++
	a.queue = append(a.queue, ev)
	if len(a.queue) > a.queueCap {
		a.shedOne()
	}
}

// shedOne drops the lowest-priority queued cast (earliest among
// equals) and reports it as an unrecoverable loss, the honest verdict:
// the layer chose this message as the cheapest to sacrifice.
func (a *Adapt) shedOne() {
	if len(a.queue) == 0 {
		return
	}
	min := 0
	for i, ev := range a.queue {
		if ev.Priority < a.queue[min].Priority {
			min = i
		}
	}
	victim := a.queue[min]
	a.queue = append(a.queue[:min], a.queue[min+1:]...)
	a.stats.Shed++
	if a.Ctx.Tracing() {
		a.Ctx.Tracef("adapt %s: shed cast (priority %d, %d queued)",
			a.Ctx.Self(), victim.Priority, len(a.queue))
	}
	a.Ctx.Up(&core.Event{
		Type:   core.ULostMessage,
		Detail: &core.Detail{Reason: "adapt: shed under overload"},
	})
}

// openness is the current admission rate for one message: the AIMD
// level scaled by the suspicion factor of the message's destinations
// (the view for a cast, Dests for a send) — the most suspected
// destination governs.
func (a *Adapt) openness(ev *core.Event) float64 {
	dests := a.members
	if ev != nil && ev.Type == core.DSend && len(ev.Dests) > 0 {
		dests = ev.Dests
	}
	var worst float64
	for _, m := range dests {
		if m == a.Ctx.Self() {
			continue
		}
		if p := a.phi[m]; p > worst {
			worst = p
		}
	}
	return a.level * a.phiFactor(worst)
}

// phiFactor maps a suspicion level onto a rate multiplier: 1 below
// phiLow, minLevel at or past phiHigh, linear in between.
func (a *Adapt) phiFactor(phi float64) float64 {
	switch {
	case phi < phiLow:
		return 1
	case phi >= phiHigh:
		return minLevel
	default:
		frac := (phi - phiLow) / (phiHigh - phiLow)
		return 1 - frac*(1-minLevel)
	}
}

// applyView adopts the new membership: suspicion of members no longer
// in the view stops throttling immediately (exclusion is the binary
// verdict; the graded signal is moot).
func (a *Adapt) applyView(v *core.View) {
	if v == nil {
		return
	}
	a.members = append([]core.EndpointID(nil), v.Members...)
	alive := make(map[core.EndpointID]bool, len(v.Members))
	for _, m := range v.Members {
		alive[m] = true
	}
	for e := range a.phi {
		if !alive[e] {
			delete(a.phi, e)
		}
	}
}

// tick is the control loop: poll the egress ledger, adjust the AIMD
// level, purge the queue after collapse drops, and drain what the
// current rate affords.
func (a *Adapt) tick() {
	if a.destroyed {
		return
	}
	a.tickCancel = a.Ctx.SetTimer(tickEvery, a.tick)

	var worst float64
	for _, m := range a.members {
		if m == a.Ctx.Self() {
			continue
		}
		if p := a.phi[m]; p > worst {
			worst = p
		}
	}

	fb, ok := a.Ctx.EgressFeedback()
	a.hasLedger = ok
	newDrops := ok && fb.CollapseDropped > a.lastDrops
	backlogged := ok && fb.BacklogBytes >= backlogHigh
	switch {
	case newDrops || backlogged || worst >= phiHigh:
		if a.level > minLevel {
			a.level *= decreaseFactor
			if a.level < minLevel {
				a.level = minLevel
			}
			a.stats.Decreases++
			if a.Ctx.Tracing() {
				a.Ctx.Tracef("adapt %s: decrease to %.3f (drops=%v backlog=%v φ=%.1f)",
					a.Ctx.Self(), a.level, newDrops, backlogged, worst)
			}
		}
	// Increase needs a draining bucket, not an idle one: steady
	// control traffic keeps a healthy bucket busy at almost every poll
	// instant, so demanding an exactly-empty backlog would latch the
	// level at the floor forever.
	case (!ok || fb.BacklogBytes < backlogHigh/4) && worst < phiLow:
		if a.level < 1 {
			a.level += increaseStep
			if a.level > 1 {
				a.level = 1
			}
			a.stats.Increases++
		}
	}
	if ok {
		a.lastDrops = fb.CollapseDropped
	}

	// The fabric already dropped frames on the floor: the queue is
	// stale demand. Purge it to half capacity, cheapest first, rather
	// than feeding a collapsing bucket.
	if newDrops {
		for len(a.queue) > a.queueCap/2 {
			a.shedOne()
		}
	}

	// Drain at the controlled rate. Openness is evaluated per queued
	// message (sends carry their own destinations); credit accumulates
	// fractional launches across ticks and is capped at one burst so
	// an idle stretch cannot bank an arbitrary spike.
	if len(a.queue) > 0 {
		a.credit += a.openness(a.queue[0]) * a.burst
		if a.credit > a.burst {
			a.credit = a.burst
		}
		for len(a.queue) > 0 && (a.credit >= 1 || a.openness(a.queue[0]) >= 1) {
			ev := a.queue[0]
			a.queue = a.queue[1:]
			if a.openness(ev) < 1 {
				a.credit--
			}
			a.Ctx.Down(ev)
		}
	} else {
		a.credit = 0
	}
}

func (a *Adapt) dumpLine() string {
	ledger := "no ledger"
	if a.hasLedger {
		ledger = "ledger ok"
	}
	return fmt.Sprintf("level=%.3f queued=%d shed=%d throttled=%d dec=%d inc=%d (%s)",
		a.level, len(a.queue), a.stats.Shed, a.stats.Throttled,
		a.stats.Decreases, a.stats.Increases, ledger)
}
