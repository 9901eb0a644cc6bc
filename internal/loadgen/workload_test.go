package loadgen

import (
	"testing"
	"time"
)

// drain collects every arrival from a generator.
func drain(g *arrivalGen) []time.Duration {
	var out []time.Duration
	for {
		t, ok := g.next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// TestArrivalRates: over a long horizon each shape's arrival count
// matches its configured mean rate within CI-safe bounds (a Poisson
// count's relative sd at n=10000 is 1%; ±10% is > 9 sigma).
func TestArrivalRates(t *testing.T) {
	const rate, horizon = 1000.0, 10 * time.Second
	want := rate * horizon.Seconds()
	for _, spec := range []CohortSpec{
		{Shape: ShapeSteady},
		{Shape: ShapeDiurnal, Period: time.Second, Duty: 0.5},
		{Shape: ShapeBurst, Period: 500 * time.Millisecond, Duty: 0.2},
	} {
		spec := spec
		t.Run(spec.Shape.String(), func(t *testing.T) {
			got := float64(len(drain(newArrivalGen(123, spec, rate, horizon))))
			if got < 0.9*want || got > 1.1*want {
				t.Fatalf("%v: %v arrivals over %v at rate %v, want %v +/-10%%", spec.Shape, got, horizon, rate, want)
			}
		})
	}
}

// TestArrivalWindow: arrivals close at the run horizon.
func TestArrivalWindow(t *testing.T) {
	times := drain(newArrivalGen(6, CohortSpec{Shape: ShapeSteady}, 500, time.Second))
	if len(times) == 0 {
		t.Fatal("no arrivals before the horizon")
	}
	for _, at := range times {
		if at >= time.Second {
			t.Fatalf("arrival at %v past the run horizon", at)
		}
	}
}

// TestBurstConcentration: a burst cohort fires only inside the duty
// window of each period and at the elevated in-burst rate.
func TestBurstConcentration(t *testing.T) {
	spec := CohortSpec{Shape: ShapeBurst, Period: time.Second, Duty: 0.2}
	times := drain(newArrivalGen(7, spec, 200, 10*time.Second))
	if len(times) == 0 {
		t.Fatal("no burst arrivals")
	}
	for _, at := range times {
		if phase := at % spec.Period; float64(phase) >= spec.Duty*float64(spec.Period) {
			t.Fatalf("arrival at %v is outside the burst window (phase %v)", at, phase)
		}
	}
}

// TestDiurnalModulation: a diurnal cohort's first half-period (rate
// above mean) draws measurably more arrivals than its second half.
func TestDiurnalModulation(t *testing.T) {
	spec := CohortSpec{Shape: ShapeDiurnal, Period: 2 * time.Second, Duty: 0.8}
	times := drain(newArrivalGen(8, spec, 500, 10*time.Second))
	var up, down int
	for _, at := range times {
		if at%spec.Period < spec.Period/2 {
			up++
		} else {
			down++
		}
	}
	// With Duty 0.8 the expected split is (1+2·0.8/π) : (1−2·0.8/π) ≈
	// 1.51 : 0.49; requiring up > 1.2×down leaves a wide margin.
	if up == 0 || down == 0 || float64(up) < 1.2*float64(down) {
		t.Fatalf("diurnal halves %d/%d show no modulation", up, down)
	}
}

// TestArrivalDeterminism: equal seeds replay the identical stream;
// different seeds do not.
func TestArrivalDeterminism(t *testing.T) {
	spec := CohortSpec{Shape: ShapeDiurnal, Period: time.Second, Duty: 0.5}
	a := drain(newArrivalGen(42, spec, 300, 5*time.Second))
	b := drain(newArrivalGen(42, spec, 300, 5*time.Second))
	if len(a) != len(b) {
		t.Fatalf("same-seed lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed streams diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := drain(newArrivalGen(43, spec, 300, 5*time.Second))
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced the identical stream")
		}
	}
}

// TestMixSeedIndependence: per-(group, cohort) seeds are distinct, so
// adding a group never perturbs another group's arrivals.
func TestMixSeedIndependence(t *testing.T) {
	seen := map[int64]bool{}
	for gi := 0; gi < 200; gi++ {
		for ci := 0; ci < 4; ci++ {
			s := mixSeed(99, gi, ci)
			if seen[s] {
				t.Fatalf("seed collision at group %d cohort %d", gi, ci)
			}
			seen[s] = true
		}
	}
}

// TestWorkloadShapeVocabularyCoverage: the default mix exercises every
// shape the generator vocabulary defines — a new Shape must be added
// to the standard serving mix (or this list) before it ships.
func TestWorkloadShapeVocabularyCoverage(t *testing.T) {
	covered := map[Shape]bool{}
	for _, c := range DefaultCohorts() {
		covered[c.Shape] = true
		if c.Fraction <= 0 {
			t.Fatalf("%v cohort has non-positive fraction", c.Shape)
		}
	}
	for _, s := range Shapes {
		if !covered[s] {
			t.Errorf("shape %v not drawn by DefaultCohorts", s)
		}
	}
	var total float64
	for _, c := range DefaultCohorts() {
		total += c.Fraction
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("default cohort fractions sum to %v, want 1", total)
	}
	// And every shape stringifies (snapshot labels depend on it).
	for _, s := range Shapes {
		if s.String() == "" {
			t.Errorf("shape %d has empty name", int(s))
		}
	}
}

// TestZeroRateCohortIsSilent: a zero-rate stream produces nothing
// rather than dividing by zero.
func TestZeroRateCohortIsSilent(t *testing.T) {
	if got := drain(newArrivalGen(1, CohortSpec{Shape: ShapeSteady}, 0, time.Second)); len(got) != 0 {
		t.Fatalf("zero-rate cohort produced %d arrivals", len(got))
	}
}
