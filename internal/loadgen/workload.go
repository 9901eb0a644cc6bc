package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Shape selects the time profile of a cohort's offered load. All
// shapes have the same long-run mean rate; they differ in how the
// casts bunch, which is what separates a harness that finds real knees
// from one that only measures steady state.
type Shape int

const (
	// ShapeSteady is a homogeneous Poisson process at the cohort rate.
	ShapeSteady Shape = iota
	// ShapeDiurnal modulates the rate sinusoidally over Period:
	// λ(t) = r·(1 + Duty·sin(2πt/Period)), Duty in [0,1].
	ShapeDiurnal
	// ShapeBurst concentrates the whole cohort rate into the first
	// Duty fraction of each Period and goes silent for the rest:
	// bursts at r/Duty, mean still r.
	ShapeBurst
)

// Shapes lists every workload shape, in declaration order — the
// vocabulary the coverage test asserts the default mix draws from.
var Shapes = []Shape{ShapeSteady, ShapeDiurnal, ShapeBurst}

func (s Shape) String() string {
	switch s {
	case ShapeSteady:
		return "steady"
	case ShapeDiurnal:
		return "diurnal"
	case ShapeBurst:
		return "burst"
	}
	return fmt.Sprintf("shape(%d)", int(s))
}

// CohortSpec describes one client cohort inside every group: a share
// of the group's offered rate with a time profile. Cohorts are the
// multi-period part of the workload — a run mixes steady background,
// slow diurnal swell, and short bursts.
type CohortSpec struct {
	Shape Shape
	// Fraction is this cohort's share of the group's offered rate.
	// The fractions of a mix should sum to 1.
	Fraction float64
	// Period is the modulation period for diurnal and burst shapes.
	Period time.Duration
	// Duty is the diurnal amplitude (0..1) or the burst duty cycle
	// (0 < Duty ≤ 1).
	Duty float64
}

// DefaultCohorts is the serving mix every run uses: a steady majority,
// a diurnal swell, and a bursty tail. Every Shape in Shapes appears.
func DefaultCohorts() []CohortSpec {
	return []CohortSpec{
		{Shape: ShapeSteady, Fraction: 0.60},
		{Shape: ShapeDiurnal, Fraction: 0.25, Period: time.Second, Duty: 0.5},
		{Shape: ShapeBurst, Fraction: 0.15, Period: 500 * time.Millisecond, Duty: 0.2},
	}
}

// splitmix64 is the standard 64-bit mixer; it turns (seed, group,
// cohort) coordinates into independent-looking streams so adding a
// group or cohort never perturbs another's arrivals.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixSeed derives the rng seed for cohort ci of group gi.
func mixSeed(seed int64, gi, ci int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)^uint64(gi)<<20) ^ uint64(ci)<<8))
}

// arrivalGen generates one cohort's cast times by thinning (Ogata's
// method): exponential candidate gaps at the shape's peak rate λmax,
// each accepted with probability λ(t)/λmax. Thinning keeps the
// open-loop property exactly — arrivals never wait on the system — and
// is deterministic per seed because the only randomness is the
// generator's own stream.
type arrivalGen struct {
	rng    *rand.Rand
	spec   CohortSpec
	rate   float64 // cohort mean rate, casts/sec
	lamMax float64 // peak instantaneous rate
	t      time.Duration
	stop   time.Duration // arrivals close here
	done   bool
}

// newArrivalGen builds the generator for one (group, cohort) stream.
// rate is the cohort's mean casts/sec (group rate × Fraction); stop
// closes arrivals at the end of the measured portion of the run.
func newArrivalGen(seed int64, spec CohortSpec, rate float64, stop time.Duration) *arrivalGen {
	g := &arrivalGen{
		rng:  rand.New(rand.NewSource(seed)),
		spec: spec,
		rate: rate,
		stop: stop,
	}
	switch spec.Shape {
	case ShapeDiurnal:
		g.lamMax = rate * (1 + clamp01(spec.Duty))
	case ShapeBurst:
		d := spec.Duty
		if d <= 0 || d > 1 {
			d = 0.2
		}
		g.spec.Duty = d
		g.lamMax = rate / d
	default:
		g.lamMax = rate
	}
	if g.lamMax <= 0 || rate <= 0 {
		g.done = true
	}
	return g
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// lambda is the instantaneous rate at time t.
func (g *arrivalGen) lambda(t time.Duration) float64 {
	switch g.spec.Shape {
	case ShapeDiurnal:
		period := g.spec.Period
		if period <= 0 {
			return g.rate
		}
		phase := 2 * math.Pi * float64(t) / float64(period)
		return g.rate * (1 + clamp01(g.spec.Duty)*math.Sin(phase))
	case ShapeBurst:
		period := g.spec.Period
		if period <= 0 {
			return g.rate
		}
		phase := t % period
		if float64(phase) < g.spec.Duty*float64(period) {
			return g.rate / g.spec.Duty
		}
		return 0
	default:
		return g.rate
	}
}

// next returns the next arrival time, or ok=false when the stream is
// exhausted. Successive calls are strictly increasing.
func (g *arrivalGen) next() (time.Duration, bool) {
	if g.done {
		return 0, false
	}
	for {
		gap := g.rng.ExpFloat64() / g.lamMax
		g.t += time.Duration(gap * float64(time.Second))
		if g.t >= g.stop {
			g.done = true
			return 0, false
		}
		if g.rng.Float64()*g.lamMax <= g.lambda(g.t) {
			return g.t, true
		}
	}
}
