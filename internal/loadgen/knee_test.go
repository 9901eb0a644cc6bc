package loadgen

import (
	"encoding/json"
	"testing"
	"time"

	"horus/internal/chaos"
	"horus/internal/netsim"
)

// kneeSweepConfig is the pinned saturation scenario: 32 endpoints
// behind 60 KB/s egress budgets, swept over a geometric load grid. At
// this budget the p99 criterion fails between 800 and 1 270 casts/s per
// group, so the knee sits strictly inside the grid. The grid reached
// 800 while every header integer took four or eight bytes and the knee
// was 263.90 on it (317.48 on this one).
func kneeSweepConfig() SweepConfig {
	return SweepConfig{
		Base: Config{
			Seed:    11,
			Stack:   "fifo",
			Groups:  8,
			Members: 4,
			Body:    48,
			Warmup:  100 * time.Millisecond,
			Measure: 500 * time.Millisecond,
			Drain:   200 * time.Millisecond,
			Window:  125 * time.Millisecond,
			Host:    netsim.Host{EgressBudget: 60_000},
		},
		Loads:    DefaultLoadGrid(10, 50, 3200),
		RatioTol: 0.05,
		P99Bound: 50 * time.Millisecond,
	}
}

func runKneeSweep(t *testing.T, sc SweepConfig) *SweepResult {
	t.Helper()
	sr, err := Sweep(func() chaos.Fabric { return chaos.NewSimFabric(sc.Base.Seed, testLink) }, sc)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestKneePinnedLocation is the pinned-seed knee regression: the
// scenario above locates its knee at 800 casts/s per group. The
// simulation is deterministic, so the knee must
// stay at that grid point; the tolerance of one grid step documents
// how much drift a deliberate protocol change may justify before this
// pin has to be re-derived (with the EXPERIMENTS.md curves).
func TestKneePinnedLocation(t *testing.T) {
	sr := runKneeSweep(t, kneeSweepConfig())
	if !sr.Saturated {
		t.Fatalf("sweep never saturated: knee censored at %.4g", sr.Knee)
	}
	const pinned = 800.00
	lo, hi := 503.97, 1269.92 // one grid step either side of the pin
	if sr.Knee < lo || sr.Knee > hi {
		t.Fatalf("knee at %.4g casts/s, pinned %.4g (allowed drift [%.4g, %.4g])", sr.Knee, pinned, lo, hi)
	}
	if sr.Knee != pinned {
		// Inside tolerance but off the pin: make the drift loud so the
		// pin gets re-derived deliberately, not silently.
		t.Logf("knee drifted off the pin: %.4g (pinned %.4g)", sr.Knee, pinned)
	}
	// While the system tracks offered load, goodput rises ~Members per
	// offered cast.
	if sr.Slope < 0.95*float64(sr.Points[0].Result.Members) {
		t.Fatalf("pre-knee slope %.3f, want ~%d", sr.Slope, sr.Points[0].Result.Members)
	}
	// The knee criteria must actually bind: every pre-knee point
	// passes, and the first post-knee point fails.
	var failed bool
	for _, p := range sr.Points {
		if !p.Pass {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("no failing point despite Saturated")
	}
}

// TestSweepDeterministic: the bit-identical replay guarantee at sweep
// granularity — two same-seed sweeps marshal to byte-identical JSON.
func TestSweepDeterministic(t *testing.T) {
	sc := kneeSweepConfig()
	sc.Loads = DefaultLoadGrid(3, 100, 400) // smaller grid, same machinery
	a := runKneeSweep(t, sc)
	b := runKneeSweep(t, sc)
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatalf("same-seed sweep results differ:\n%s\n--\n%s", ab, bb)
	}
}

func TestDefaultLoadGrid(t *testing.T) {
	g := DefaultLoadGrid(6, 50, 800)
	if len(g) != 6 || g[0] != 50 || g[5] != 800 {
		t.Fatalf("grid %v: want 6 points from 50 to 800", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not ascending: %v", g)
		}
	}
	if got := DefaultLoadGrid(1, 100, 200); len(got) != 1 || got[0] != 100 {
		t.Fatalf("degenerate grid %v", got)
	}
}

// TestLoadClusterScaleKnee is the acceptance soak: 100 groups x 10
// members = 1000 endpoints on one simulated fabric, swept to a
// measured saturation knee, twice, with bit-identical JSON results.
// Skipped under -short; CI runs it in the scheduled soak lane and the
// horus-load smoke covers the reduced-scale path on every push. The
// grid's top is 3200: since a NAK status carries one count per peer,
// 1600 casts/s per group passes and the knee sits at 1600.
func TestLoadClusterScaleKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-scale soak: skipped under -short")
	}
	sc := SweepConfig{
		Base: Config{
			Seed:    42,
			Stack:   "fifo",
			Groups:  100,
			Members: 10,
			Body:    64,
			Warmup:  100 * time.Millisecond,
			Measure: 250 * time.Millisecond,
			Drain:   150 * time.Millisecond,
			Window:  125 * time.Millisecond,
			Host:    netsim.Host{EgressBudget: 150_000},
		},
		Loads:    []float64{100, 400, 1600, 3200},
		RatioTol: 0.05,
		P99Bound: 100 * time.Millisecond,
	}
	run := func() (*SweepResult, []byte) {
		sr := runKneeSweep(t, sc)
		b, err := json.Marshal(sr)
		if err != nil {
			t.Fatal(err)
		}
		return sr, b
	}
	sr, a := run()
	if n := sr.Points[0].Result.Groups * sr.Points[0].Result.Members; n < 1000 {
		t.Fatalf("acceptance scale is %d endpoints, need >= 1000", n)
	}
	if !sr.Saturated {
		t.Fatalf("1000-endpoint sweep did not saturate (knee censored at %.4g)", sr.Knee)
	}
	if sr.Knee <= 0 {
		t.Fatal("even the lowest load failed: no measurable knee")
	}
	_, b := run()
	if string(a) != string(b) {
		t.Fatal("cluster-scale sweep replay is not bit-identical")
	}
	t.Logf("1000-endpoint knee at %.4g casts/s per group", sr.Knee)
}
