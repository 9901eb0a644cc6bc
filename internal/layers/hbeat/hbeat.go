// Package hbeat implements the HBEAT layer: a heartbeat-based failure
// detector filling the role of the paper's §5 "external service [that]
// picks up communication problem-reports and other failure
// information" — but producing that information itself instead of
// waiting for hand-injected PROBLEM events.
//
// Each instance multicasts a small heartbeat on a timer and tracks the
// inter-arrival times of traffic from every other member of the
// current view. Silence is turned into suspicion with an adaptive
// timeout in the style of Jacobson's RTT estimator: an EWMA of the
// inter-arrival mean plus k times an EWMA of its deviation, clamped to
// a configurable floor and ceiling. When a member stays silent past
// its timeout the layer emits a PROBLEM upcall, which a membership
// layer above converts into a clean view change, or which
// failure.Service.WrapHandler routes into the external service.
//
// The same statistics also score the silence as a φ-accrual suspicion
// level (Phi), which WithSuspectUpcalls reports as graded SUSPECT
// upcalls at four fixed φ bands (1, 2, 4, 8). φ never raises PROBLEM:
// that is the timeout's alone.
//
// Any traffic counts as life, not just heartbeats, so a busy link
// never looks dead; and a suspect that speaks again is re-armed, so a
// member that was merely slow can be re-suspected later (the layer
// holds no grudges — permanent exclusion is membership's decision).
//
// The layer is placement-agnostic below the membership layer: it
// learns the view from view downcalls travelling past it (or VIEW
// upcalls, when placed above membership for monitoring only).
//
// Properties: requires nothing (placement-agnostic — periodic
// heartbeats are loss-tolerant over raw best effort and harmless over
// reliable FIFO); provides nothing; inherits everything.
package hbeat

import (
	"fmt"
	"math"
	"time"

	"horus/internal/core"
)

// Wire kinds.
const (
	kData = 1 // cast pass-through
	kSend = 2 // send pass-through
	kBeat = 3 // heartbeat (absorbed)
)

const (
	defaultPeriod = 100 * time.Millisecond // override with WithPeriod

	// timeoutK is the deviation multiplier of the adaptive timeout
	// (timeout = mean + k·dev).
	timeoutK = 4.0

	// ewmaGain and devGain are the Jacobson-style smoothing gains
	// (1/8 and 1/4, as in TCP's RTT estimation).
	ewmaGain = 0.125
	devGain  = 0.25
)

// Option configures the layer.
type Option func(*Hbeat)

// WithPeriod sets the heartbeat and sweep interval.
func WithPeriod(d time.Duration) Option { return func(h *Hbeat) { h.period = d } }

// WithMinTimeout sets the suspicion-timeout floor. Default 2·period.
func WithMinTimeout(d time.Duration) Option { return func(h *Hbeat) { h.minTimeout = d } }

// WithMaxTimeout sets the suspicion-timeout ceiling. Default
// 20·period.
func WithMaxTimeout(d time.Duration) Option { return func(h *Hbeat) { h.maxTimeout = d } }

// WithSuspectUpcalls turns on graded SUSPECT upcalls: whenever a
// peer's φ crosses one of the ascending thresholds 1, 2, 4 and 8, the
// layer emits one USuspect carrying the peer and its current φ. The
// contract (see DESIGN.md):
//
//   - Emission happens only in the periodic sweep, so a peer produces
//     at most one SUSPECT per heartbeat period (the rate limit).
//   - Within a band the signal is monotone: no re-emission until the
//     band changes.
//   - Band entry is immediate once silence clears the MinTimeout
//     floor; band exit is hysteretic — φ must fall clearly below the
//     current band's threshold (suspectHysteresis) before one
//     retraction USuspect carries the lower φ. A peer that speaks
//     again therefore produces exactly one retraction at the next
//     sweep, not a flap per sweep.
func WithSuspectUpcalls() Option { return func(h *Hbeat) { h.suspect = true } }

// suspectBands are the φ thresholds of the SUSPECT upcalls: φ=1 is a
// 10% chance the peer is still alive under the arrival model, each
// next band a tenfold less likely one.
var suspectBands = [...]float64{1, 2, 4, 8}

// suspectHysteresis scales a band's threshold for the exit test: φ
// must fall below threshold×this before the band is left. It keeps a
// φ hovering at a threshold from emitting a SUSPECT flap every sweep.
const suspectHysteresis = 0.8

// New returns an HBEAT layer with default configuration.
func New() core.Layer { return newHbeat() }

// NewWith returns a factory with options applied.
func NewWith(opts ...Option) core.Factory {
	return func() core.Layer {
		h := newHbeat()
		for _, o := range opts {
			o(h)
		}
		return h
	}
}

func newHbeat() *Hbeat {
	return &Hbeat{period: defaultPeriod}
}

// peerState tracks the arrival process of one monitored member.
type peerState struct {
	last      time.Duration // time of the most recent arrival
	mean      float64       // EWMA of inter-arrival time, in seconds
	dev       float64       // EWMA of |sample - mean|, in seconds
	samples   int
	suspected bool
	band      int // number of suspect thresholds currently crossed
}

// Hbeat is one HBEAT layer instance.
type Hbeat struct {
	core.Base

	members []core.EndpointID
	peers   map[core.EndpointID]*peerState

	period     time.Duration
	minTimeout time.Duration
	maxTimeout time.Duration
	suspect    bool              // emit SUSPECT upcalls
	ticker     core.Timer[Hbeat] // the beat and sweep (tick)

	stats Stats
}

// Stats counts HBEAT activity.
type Stats struct {
	BeatsSent     int
	BeatsReceived int
	Suspicions    int // PROBLEM upcalls emitted
	Rearmed       int // suspects that spoke again and were re-armed
	Suspects      int // SUSPECT upcalls for band rises
	Retractions   int // SUSPECT upcalls for band falls
}

// Name implements core.Layer.
func (h *Hbeat) Name() string { return "HBEAT" }

// Stats returns a snapshot of the layer's counters.
func (h *Hbeat) Stats() Stats { return h.stats }

// Timeout returns the current adaptive suspicion timeout for a peer
// (for tests and diagnostics); zero if the peer is not monitored.
func (h *Hbeat) Timeout(e core.EndpointID) time.Duration {
	p := h.peers[e]
	if p == nil {
		return 0
	}
	return h.timeoutOf(p)
}

// Phi returns the peer's current φ-accrual suspicion level (for tests
// and diagnostics); zero if the peer is not monitored or has no
// arrival history yet.
func (h *Hbeat) Phi(e core.EndpointID) float64 {
	p := h.peers[e]
	if p == nil {
		return 0
	}
	return phiOf(p, h.Ctx.Now()-p.last)
}

// Init implements core.Layer.
func (h *Hbeat) Init(c *core.Context) error {
	if err := h.Base.Init(c); err != nil {
		return err
	}
	h.peers = make(map[core.EndpointID]*peerState)
	if h.minTimeout == 0 {
		h.minTimeout = 2 * h.period
	}
	if h.maxTimeout == 0 {
		h.maxTimeout = 20 * h.period
	}
	h.ticker.Bind(c, h, (*Hbeat).tick)
	if h.period > 0 {
		h.ticker.Reset(h.period)
	}
	return nil
}

// Down implements core.Layer.
func (h *Hbeat) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		ev.Msg.PushUint8(kData)
		h.Ctx.Down(ev)
	case core.DSend:
		ev.Msg.PushUint8(kSend)
		h.Ctx.Down(ev)
	case core.DView:
		h.applyView(ev.View)
		h.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, "HBEAT: "+h.dumpLine())
		h.Ctx.Down(ev)
	default:
		h.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (h *Hbeat) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend:
		kind := ev.Msg.PopUint8()
		h.recordArrival(ev.Source)
		if kind == kBeat {
			h.stats.BeatsReceived++
			return // absorbed
		}
		h.Ctx.Up(ev)
	case core.UView:
		// Placed above the membership layer the view arrives as an
		// upcall instead of a downcall; monitor it the same way.
		h.applyView(ev.View)
		h.Ctx.Up(ev)
	default:
		h.Ctx.Up(ev)
	}
}

// applyView resets monitoring to the new membership: new members get a
// fresh grace period, removed members are forgotten, and members
// re-admitted after suspicion start clean (re-admission is decided
// above; the detector must not instantly re-accuse). A clean start
// keeps the SUSPECT band already reported, so the next sweep retracts
// it: a listener must never be left holding a suspicion of a member.
func (h *Hbeat) applyView(v *core.View) {
	if v == nil {
		return
	}
	h.members = append([]core.EndpointID(nil), v.Members...)
	now := h.Ctx.Now()
	alive := make(map[core.EndpointID]bool, len(v.Members))
	for _, m := range v.Members {
		alive[m] = true
		if m == h.Ctx.Self() {
			continue
		}
		p := h.peers[m]
		if p == nil {
			h.peers[m] = &peerState{last: now}
		} else if p.suspected {
			h.peers[m] = &peerState{last: now, band: p.band}
		} else {
			// Known-good peer: keep its learned arrival statistics but
			// restart the silence clock — view installation pauses
			// traffic, and that pause must not count against it.
			p.last = now
		}
	}
	for e := range h.peers {
		if !alive[e] {
			delete(h.peers, e)
		}
	}
}

// recordArrival folds one arrival into the peer's estimator.
func (h *Hbeat) recordArrival(src core.EndpointID) {
	if src == h.Ctx.Self() || src.IsZero() {
		return
	}
	p := h.peers[src]
	if p == nil {
		// Traffic from outside the view (merge discovery, pre-join):
		// not monitored.
		return
	}
	now := h.Ctx.Now()
	sample := (now - p.last).Seconds()
	p.last = now
	if p.samples == 0 {
		p.mean = sample
		p.dev = sample / 2
	} else {
		err := sample - p.mean
		p.mean += ewmaGain * err
		if err < 0 {
			err = -err
		}
		p.dev += devGain * (err - p.dev)
	}
	p.samples++
	if p.suspected {
		p.suspected = false
		h.stats.Rearmed++
	}
}

// timeoutOf computes the adaptive timeout for a peer.
func (h *Hbeat) timeoutOf(p *peerState) time.Duration {
	if p.samples == 0 {
		// No arrival observed yet: allow the full ceiling before the
		// first accusation.
		return h.maxTimeout
	}
	d := time.Duration((p.mean + timeoutK*p.dev) * float64(time.Second))
	if d < h.minTimeout {
		d = h.minTimeout
	}
	if d > h.maxTimeout {
		d = h.maxTimeout
	}
	return d
}

// phiOf scores a silence against the peer's learned arrival process:
// the probability that the next arrival is still coming after this
// much silence, under a normal model of the inter-arrival time, as
// -log10. Zero history scores zero — the grace before the first
// arrival is the ceiling timeout's job.
func phiOf(p *peerState, silence time.Duration) float64 {
	if p.samples == 0 {
		return 0
	}
	// A near-zero deviation (perfectly regular arrivals, as in the
	// deterministic simulator) would make the normal model a step
	// function that accuses one instant past the mean; floor it at a
	// tenth of the mean so regularity buys sharpness, not hair-trigger.
	dev := p.dev
	if min := p.mean / 10; dev < min {
		dev = min
	}
	pLater := 0.5 * math.Erfc((silence.Seconds()-p.mean)/(dev*math.Sqrt2))
	// Erfc underflows to zero for extreme silences; cap φ instead of
	// returning +Inf.
	if pLater < 1e-30 {
		pLater = 1e-30
	}
	return -math.Log10(pLater)
}

// tick sends a heartbeat and sweeps for silent members.
func (h *Hbeat) tick() {
	h.ticker.Reset(h.period)
	if len(h.members) >= 2 {
		beat := core.NewDowncall(core.DCast, nil, 0)
		beat.Msg.PushUint8(kBeat)
		h.stats.BeatsSent++
		h.Ctx.Down(beat)
	}
	now := h.Ctx.Now()
	// Sweep in view-rank order for determinism.
	for _, e := range h.members {
		if e == h.Ctx.Self() {
			continue
		}
		p := h.peers[e]
		if p == nil {
			continue
		}
		if h.suspect {
			h.sweepSuspect(e, p, now)
		}
		if p.suspected {
			continue
		}
		if silence := now - p.last; silence > h.timeoutOf(p) {
			p.suspected = true
			h.stats.Suspicions++
			if h.Ctx.Tracing() {
				h.Ctx.Tracef("hbeat %s: suspecting %s after %v of silence",
					h.Ctx.Self(), e, silence)
			}
			h.Ctx.Up(&core.Event{Type: core.UProblem, Source: e})
		}
	}
}

// sweepSuspect applies the banded SUSPECT rule to one peer: compare
// its current φ against suspectBands and emit one USuspect when the
// band changes — immediately on a rise (past the MinTimeout grace),
// hysteretically on a fall. Runs once per tick per peer, which is the
// emission rate limit.
func (h *Hbeat) sweepSuspect(e core.EndpointID, p *peerState, now time.Duration) {
	silence := now - p.last
	phi := phiOf(p, silence)
	raw := 0
	for _, b := range suspectBands {
		if phi >= b {
			raw++
		}
	}
	switch {
	case raw > p.band && silence > h.minTimeout:
		p.band = raw
		h.stats.Suspects++
		if h.Ctx.Tracing() {
			h.Ctx.Tracef("hbeat %s: suspect %s φ=%.2f (band %d)", h.Ctx.Self(), e, phi, raw)
		}
		h.Ctx.Up(&core.Event{Type: core.USuspect, Source: e, Detail: &core.Detail{Phi: phi}})
	case raw < p.band && phi < suspectHysteresis*suspectBands[p.band-1]:
		p.band = raw
		h.stats.Retractions++
		if h.Ctx.Tracing() {
			h.Ctx.Tracef("hbeat %s: retract %s φ=%.2f (band %d)", h.Ctx.Self(), e, phi, raw)
		}
		h.Ctx.Up(&core.Event{Type: core.USuspect, Source: e, Detail: &core.Detail{Phi: phi}})
	}
}

func (h *Hbeat) dumpLine() string {
	return fmt.Sprintf("monitored=%d sent=%d recv=%d suspicions=%d rearmed=%d",
		len(h.peers), h.stats.BeatsSent, h.stats.BeatsReceived,
		h.stats.Suspicions, h.stats.Rearmed)
}
