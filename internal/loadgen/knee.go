package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
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
	// delivered/expected ≥ 1−RatioTol. Zero means 0.05.
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
	tol := sc.RatioTol
	if tol <= 0 {
		tol = 0.05
	}
	if r.Ratio < 1-tol {
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
	loads := append([]float64(nil), sc.Loads...)
	sort.Float64s(loads)
	base := sc.Base.fill()
	sr := &SweepResult{
		Seed:     base.Seed,
		Stack:    base.Stack,
		RatioTol: sc.RatioTol,
		P99Bound: int64(sc.P99Bound),
	}
	if sr.RatioTol <= 0 {
		sr.RatioTol = 0.05
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

// Snapshot is the machine-readable sweep document: one record per
// sweep point (ns_per_op carries p99) plus one knee record.
type Snapshot struct {
	Suite      string   `json:"suite"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []Record `json:"benchmarks"`
}

// Record is one entry of a Snapshot, in the field layout of a Go
// benchmark result.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	MBPerS      float64            `json:"mb_per_s,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Snapshot renders the sweep. Environment fields describe the host;
// every metric field is a pure function of the seed on the simulated
// fabric, so two same-seed snapshots are byte-identical on one host.
func (sr *SweepResult) Snapshot() Snapshot {
	snap := Snapshot{
		Suite:     "horus-load",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, p := range sr.Points {
		r := p.Result
		pass := 0.0
		if p.Pass {
			pass = 1
		}
		snap.Benchmarks = append(snap.Benchmarks, Record{
			Name:       fmt.Sprintf("Load/%s/load=%g", sr.Stack, p.Load),
			Iterations: int(r.OfferedCasts),
			NsPerOp:    float64(r.P99),
			Extra: map[string]float64{
				"offered_cps": r.OfferedRate,
				"goodput_dps": r.Goodput,
				"ratio":       r.Ratio,
				"delivered":   float64(r.Delivered),
				"expected":    float64(r.Expected),
				"mean_ns":     float64(r.Mean),
				"p50_ns":      float64(r.P50),
				"p95_ns":      float64(r.P95),
				"p99_ns":      float64(r.P99),
				"max_ns":      float64(r.Max),
				"shed":        float64(r.Shed),
				"lost":        float64(r.Lost),
				"pass":        pass,
			},
		})
	}
	sat := 0.0
	if sr.Saturated {
		sat = 1
	}
	snap.Benchmarks = append(snap.Benchmarks, Record{
		Name: "Knee/" + sr.Stack,
		Extra: map[string]float64{
			"knee_cps":  sr.Knee,
			"saturated": sat,
			"slope":     sr.Slope,
		},
	})
	return snap
}

// MarshalJSON-stable rendering for files and stdout.
func (s Snapshot) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeSnapshot parses a snapshot previously rendered by Encode.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// CheckAgainst gates a new snapshot on an old one: knee locations must
// agree within tol (a fraction, e.g. 0.15), and per-point goodput
// ratios must not fall by more than tol. Records present on only one
// side are ignored — grids may grow.
func (s Snapshot) CheckAgainst(old Snapshot, tol float64) error {
	if tol <= 0 {
		tol = 0.15
	}
	prev := make(map[string]Record, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		prev[r.Name] = r
	}
	var errs []string
	for _, r := range s.Benchmarks {
		o, ok := prev[r.Name]
		if !ok {
			continue
		}
		if knee, kneeOK := r.Extra["knee_cps"]; kneeOK {
			oldKnee := o.Extra["knee_cps"]
			if oldKnee > 0 && math.Abs(knee-oldKnee) > tol*oldKnee {
				errs = append(errs, fmt.Sprintf("%s: knee moved %.4g -> %.4g (> ±%.0f%%)", r.Name, oldKnee, knee, tol*100))
			}
			continue
		}
		if oldRatio, ok := o.Extra["ratio"]; ok {
			if r.Extra["ratio"] < oldRatio-tol {
				errs = append(errs, fmt.Sprintf("%s: goodput ratio fell %.4f -> %.4f (> %.2f)", r.Name, oldRatio, r.Extra["ratio"], tol))
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("loadgen: snapshot check failed:\n  %s", joinLines(errs))
	}
	return nil
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}
