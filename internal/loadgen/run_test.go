package loadgen

import (
	"encoding/json"
	"testing"
	"time"

	"horus/internal/chaos"
	"horus/internal/netsim"
)

// testLink is the default sim link the loadgen tests run over: enough
// delay to make latency non-trivial, a little jitter to spread the
// histogram, no loss — loss alone shouldn't decide pass/fail.
var testLink = netsim.Link{Delay: 200 * time.Microsecond, Jitter: 100 * time.Microsecond}

func smokeConfig(stack string) Config {
	return Config{
		Seed:    7,
		Stack:   stack,
		Groups:  4,
		Members: 3,
		Rate:    80,
		Body:    48,
		Warmup:  100 * time.Millisecond,
		Measure: 500 * time.Millisecond,
		Drain:   200 * time.Millisecond,
		Window:  125 * time.Millisecond,
	}
}

func TestRunSmokeFIFO(t *testing.T) {
	f := chaos.NewSimFabric(1, testLink)
	defer f.Close()
	r, err := Run(f, smokeConfig("fifo"))
	if err != nil {
		t.Fatal(err)
	}
	if r.OfferedCasts == 0 {
		t.Fatal("no casts offered in measure window")
	}
	if r.Ratio < 0.99 {
		t.Fatalf("uncongested run should deliver ~everything: ratio=%.4f (%d/%d)", r.Ratio, r.Delivered, r.Expected)
	}
	if r.P99 <= 0 || r.P50 <= 0 || r.P99 < r.P50 {
		t.Fatalf("implausible quantiles: p50=%v p99=%v", r.P50, r.P99)
	}
	if got := r.Hist.Count(); got != r.Delivered {
		t.Fatalf("histogram holds %d samples, delivered %d", got, r.Delivered)
	}
	var offered, delivered uint64
	for _, w := range r.Windows {
		offered += w.Offered
		delivered += w.Delivered
		if w.Expected != w.Offered*uint64(r.Members) {
			t.Fatalf("window expected %d != offered %d x members %d", w.Expected, w.Offered, r.Members)
		}
	}
	if offered != r.OfferedCasts || delivered != r.Delivered {
		t.Fatalf("window sums (%d, %d) disagree with totals (%d, %d)", offered, delivered, r.OfferedCasts, r.Delivered)
	}
	if r.Ledger.Delivered == 0 {
		t.Fatal("sim fabric should expose a packet ledger")
	}
}

func TestRunArms(t *testing.T) {
	for _, arm := range []string{"total", "adapt"} {
		arm := arm
		t.Run(arm, func(t *testing.T) {
			f := chaos.NewSimFabric(2, testLink)
			defer f.Close()
			r, err := Run(f, smokeConfig(arm))
			if err != nil {
				t.Fatal(err)
			}
			if r.Ratio < 0.99 {
				t.Fatalf("%s: uncongested ratio=%.4f", arm, r.Ratio)
			}
		})
	}
}

func TestRunRejectsUnknownArm(t *testing.T) {
	f := chaos.NewSimFabric(4, testLink)
	defer f.Close()
	if _, err := Run(f, Config{Stack: "mbrship"}); err == nil {
		t.Fatal("unknown arm accepted")
	}
}

// TestRunDeterministic is the core replay guarantee: two same-seed
// runs on the simulated fabric produce bit-identical results.
func TestRunDeterministic(t *testing.T) {
	run := func() []byte {
		f := chaos.NewSimFabric(5, testLink)
		defer f.Close()
		r, err := Run(f, smokeConfig("fifo"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same-seed runs diverged:\n%s\n--\n%s", a, b)
	}
}

// TestOutOfRangeInputRejected: a body too short for the timestamp and
// tag, a load that is not positive and a negative tolerance are
// errors, not values quietly replaced by a default; and a zero
// tolerance passes only a point that delivered everything.
func TestOutOfRangeInputRejected(t *testing.T) {
	f := chaos.NewSimFabric(6, testLink)
	defer f.Close()
	cfg := smokeConfig("fifo")
	cfg.Body = 10
	if _, err := Run(f, cfg); err == nil {
		t.Error("Run accepted a 10-byte body")
	}

	newFabric := func() chaos.Fabric { return chaos.NewSimFabric(6, testLink) }
	for _, loads := range [][]float64{{0, 50}, {50, -1}} {
		if _, err := Sweep(newFabric, SweepConfig{Base: smokeConfig("fifo"), Loads: loads, RatioTol: 0.05}); err == nil {
			t.Errorf("Sweep accepted loads %v", loads)
		}
	}
	if _, err := Sweep(newFabric, SweepConfig{Base: smokeConfig("fifo"), Loads: []float64{50}, RatioTol: -0.1}); err == nil {
		t.Error("Sweep accepted a negative tolerance")
	}

	exact := SweepConfig{}
	if exact.pass(&Result{Ratio: 0.99}) {
		t.Error("zero tolerance passed a point that lost 1% of its deliveries")
	}
	if !exact.pass(&Result{Ratio: 1}) {
		t.Error("zero tolerance failed a point that delivered everything")
	}
}
