package loadgen

import (
	"fmt"
	"math"
	"sort"
	"time"

	"horus/internal/chaos"
)

// SweepConfig drives a saturation sweep: the same cluster and workload
// mix run once per offered load level, each on a fresh fabric.
type SweepConfig struct {
	// Base is the run configuration; its Rate field is overridden by
	// each sweep point.
	Base Config
	// Loads are the offered per-group cast rates to sweep, ascending.
	Loads []float64
	// RatioTol is the goodput tolerance: a point passes only if
	// delivered/expected ≥ 1−RatioTol. Zero asks for every delivery.
	RatioTol float64
	// P99Bound fails a point whose p99 latency exceeds it; zero
	// disables the latency criterion.
	P99Bound time.Duration
}

// Point is one sweep measurement with its pass/fail verdict.
type Point struct {
	Load   float64 `json:"load_cps"`
	Pass   bool    `json:"pass"`
	Result *Result `json:"result"`
}

// SweepResult is a full sweep with its knee analysis.
type SweepResult struct {
	Seed     int64   `json:"seed"`
	Stack    string  `json:"stack"`
	RatioTol float64 `json:"ratio_tol"`
	P99Bound int64   `json:"p99_bound_ns"`
	Points   []Point `json:"points"`

	// Knee is the saturation knee: the last load of the passing
	// prefix — the highest offered load at which goodput still tracks
	// offered load within tolerance and p99 stays under the bound.
	// Zero when even the first point fails.
	Knee float64 `json:"knee_cps"`
	// Saturated reports whether the sweep actually crossed the knee
	// (some point failed); a false value means the knee is censored at
	// the top of the grid.
	Saturated bool `json:"saturated"`
	// Slope is the least-squares slope of delivered goodput versus
	// measured offered rate over the passing prefix — ≈ group size
	// while the system tracks offered load.
	Slope float64 `json:"slope"`
}

// DefaultLoadGrid returns n geometrically spaced loads from lo to hi —
// geometric because saturation phenomena are multiplicative.
func DefaultLoadGrid(n int, lo, hi float64) []float64 {
	if n < 2 || lo <= 0 || hi <= lo {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range out {
		out[i] = math.Round(v*100) / 100
		v *= ratio
	}
	out[n-1] = hi
	return out
}

// pass applies the knee criteria to one run.
func (sc SweepConfig) pass(r *Result) bool {
	if r.Ratio < 1-sc.RatioTol {
		return false
	}
	if sc.P99Bound > 0 && r.P99 > sc.P99Bound {
		return false
	}
	return true
}

// Sweep measures every load level and locates the knee. newFabric must
// return a fresh fabric per call (sweep points must not share state);
// Sweep closes each one.
func Sweep(newFabric func() chaos.Fabric, sc SweepConfig) (*SweepResult, error) {
	if len(sc.Loads) == 0 {
		return nil, fmt.Errorf("loadgen: sweep needs at least one load level")
	}
	for _, load := range sc.Loads {
		if !(load > 0) { // NaN too
			return nil, fmt.Errorf("loadgen: sweep load %v casts/s is not positive", load)
		}
	}
	if sc.RatioTol < 0 {
		return nil, fmt.Errorf("loadgen: goodput tolerance %v is negative", sc.RatioTol)
	}
	loads := append([]float64(nil), sc.Loads...)
	sort.Float64s(loads)
	base := sc.Base.fill()
	sr := &SweepResult{
		Seed:     base.Seed,
		Stack:    base.Stack,
		RatioTol: sc.RatioTol,
		P99Bound: int64(sc.P99Bound),
	}
	for _, load := range loads {
		cfg := base
		cfg.Rate = load
		f := newFabric()
		r, err := Run(f, cfg)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loadgen: sweep at %.4g casts/s: %w", load, err)
		}
		sr.Points = append(sr.Points, Point{Load: load, Pass: sc.pass(r), Result: r})
	}

	// Knee: the passing prefix ends at the first failure; later
	// recoveries (noise past saturation) don't count.
	var sx2, sxy float64
	for _, p := range sr.Points {
		if !p.Pass {
			sr.Saturated = true
			break
		}
		sr.Knee = p.Load
		sx2 += p.Result.OfferedRate * p.Result.OfferedRate
		sxy += p.Result.OfferedRate * p.Result.Goodput
	}
	if sx2 > 0 {
		sr.Slope = sxy / sx2
	}
	return sr, nil
}
