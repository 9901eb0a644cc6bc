package main

import (
	"reflect"
	"regexp"
	"testing"
)

// These tests run on virtual time only: no sockets, no sleeps. The UDP
// workload shares the ledger, the payload format, the metric code and
// the report path with the simulated ones, which is what is tested.

// scale is the -seconds value the tests run at.
const scale = 0.1

func simWorkloads() []*workload {
	var out []*workload
	for i := range workloads {
		if workloads[i].kind != udpLoad {
			out = append(out, &workloads[i])
		}
	}
	return out
}

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecNamesAndWorkloads(t *testing.T) {
	spec := mustSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json says %q, the command %q", i, w.Name, workloads[i].name)
		}
	}
}

// Every name of BENCHMARK.json is emitted, and nothing is emitted that
// BENCHMARK.json does not name: split fails on a missing name, and a
// surplus name lands in Extra, where an untraced run may put numbers
// the contract only lets it publish as per-layer metrics (the p99, the
// churn workload's view-change times) and a traced run nothing.
func TestEveryNameIsEmittedAndTheReverse(t *testing.T) {
	spec := mustSpec(t)
	for _, w := range simWorkloads() {
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: 1, seconds: scale, traced: traced, setups: 1}
			if traced {
				o.seconds = 10 * scale // the traced run takes a tenth of it
			}
			res, err := runWorkload(spec, w, o, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %s", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			if got, want := len(res.Metrics), len(spec.metrics(traced)); got != want {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, got, want)
			}
			for name, v := range res.Metrics {
				if sm, ok := spec.metric(name); !ok || sm.Unit != v.Unit {
					t.Errorf("%s: %s emitted with unit %q, BENCHMARK.json has %q", w.name, name, v.Unit, sm.Unit)
				}
			}
			for name := range res.Extra {
				if _, ok := spec.metric(name); !ok || traced {
					t.Errorf("%s traced=%v: emits %s, which BENCHMARK.json does not list for it", w.name, traced, name)
				}
			}
			if !traced {
				for _, sm := range spec.EndToEnd {
					if res.Metrics[sm.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, sm.Name, res.Metrics[sm.Name].Value)
					}
				}
			}
		}
	}
}

// fingerprint is everything about a run that virtual time determines.
type fingerprint struct {
	Attempted int64
	Counts    []int64
	Hashes    []uint64
	Casts     int64
	WireBytes int64
	WirePkts  int64
	P50, Mean float64
	Sent      int
	CrashView []int64
}

func fingerprintOf(t *testing.T, w *workload, seed int64, traced bool) fingerprint {
	t.Helper()
	out, err := runOnce(w, runOpts{seed: seed, seconds: scale, traced: traced, setups: 1})
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if out.failed() != 0 {
		t.Fatalf("%s seed %d: %s", w.name, seed, out.fail)
	}
	q, mean, _ := latencyStats(out.lat, 0.50)
	return fingerprint{out.attempted, out.counts, out.hashes, out.total.casts, out.total.wireBytes,
		out.total.wirePkts, q[0], mean, out.sim.Sent, out.crashView}
}

func TestSameSeedSameRun(t *testing.T) {
	for _, w := range simWorkloads() {
		a, b := fingerprintOf(t, w, 5, false), fingerprintOf(t, w, 5, false)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of seed 5 differ:\n%+v\n%+v", w.name, a, b)
		}
		c := fingerprintOf(t, w, 6, false)
		if reflect.DeepEqual(a.Hashes, c.Hashes) {
			t.Errorf("%s: seed 6 delivered the same sequences as seed 5", w.name)
		}
		if a.P50 == c.P50 {
			t.Errorf("%s: latency_p50 reads %v on both seeds", w.name, a.P50)
		}
	}
}

// Probes hide Skipper and CastCompiler, so a traced run takes the
// reference path; every member must still deliver the same payloads in
// the same order as in the untraced run of the seed.
func TestTracedRunDeliversTheSameSequences(t *testing.T) {
	for _, w := range simWorkloads() {
		u, tr := fingerprintOf(t, w, 5, false), fingerprintOf(t, w, 5, true)
		if !reflect.DeepEqual(u.Hashes, tr.Hashes) || !reflect.DeepEqual(u.Counts, tr.Counts) {
			t.Errorf("%s: traced run delivered differently:\nuntraced %v %v\ntraced   %v %v", w.name, u.Counts, u.Hashes, tr.Counts, tr.Hashes)
		}
	}
}

func TestLedgerCountsFailedOperations(t *testing.T) {
	const members = 3
	// run feeds a ledger: sender 0 casts n times; deliver decides what
	// each member sees of cast seq (1-based).
	run := func(n int, order bool, deliver func(g *groupLedger, member int, seq uint64)) (int64, failures) {
		g := newGroupLedger(members, order)
		for i := 0; i < n; i++ {
			g.cast(0)
		}
		for m := 0; m < members; m++ {
			for seq := uint64(1); seq <= uint64(n); seq++ {
				deliver(g, m, seq)
			}
		}
		return g.finish()
	}
	clean := func(g *groupLedger, m int, seq uint64) { g.deliver(m, 0, seq) }

	if att, f := run(10, true, clean); att != 30 || f.total() != 0 {
		t.Fatalf("clean run: attempted %d, failures %s", att, f)
	}
	_, f := run(10, false, func(g *groupLedger, m int, seq uint64) {
		if m == 1 && seq == 4 {
			return // dropped
		}
		clean(g, m, seq)
	})
	if f.Missing != 1 || f.total() != 2 { // the drop, and its successor arriving over the gap
		t.Errorf("dropped delivery: %s", f)
	}
	_, f = run(10, false, func(g *groupLedger, m int, seq uint64) {
		clean(g, m, seq)
		if m == 2 && seq == 7 {
			clean(g, m, seq) // again
		}
	})
	if f.Duplicate != 1 || f.total() != 1 {
		t.Errorf("duplicate delivery: %s", f)
	}
	_, f = run(10, false, func(g *groupLedger, m int, seq uint64) {
		switch {
		case m == 0 && seq == 5:
			clean(g, m, 6)
		case m == 0 && seq == 6:
			clean(g, m, 5)
		default:
			clean(g, m, seq)
		}
	})
	if f.Reordered != 2 || f.total() != 2 {
		t.Errorf("reordered pair: %s", f)
	}
	// Two senders, total order: member 1 delivers the pair the other
	// way round. FIFO per sender holds; agreement does not.
	g := newGroupLedger(2, true)
	g.cast(0)
	g.cast(1)
	g.deliver(0, 0, 1)
	g.deliver(0, 1, 1)
	g.deliver(1, 1, 1)
	g.deliver(1, 0, 1)
	if _, f := g.finish(); f.Disagreed != 2 || f.total() != 2 {
		t.Errorf("order disagreement: %s", f)
	}
	g = newGroupLedger(2, false)
	g.cast(0)
	g.deliver(0, 0, 1)
	g.deliver(1, 0, 1)
	g.lostMessage(1)
	if _, f := g.finish(); f.Lost != 1 {
		t.Errorf("LOST_MESSAGE: %s", f)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "noisy", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "gain", Unit: "ms", Better: "lower", Bound: 0.1},
		},
	}
	file := func(rate, lat, gain float64, noisy ...float64) *runFile {
		f := &runFile{}
		for _, n := range noisy {
			f.Workloads = append(f.Workloads, workloadResult{Workload: "w", Metrics: map[string]metricValue{
				"rate": {Value: rate}, "lat": {Value: lat}, "noisy": {Value: n}, "gain": {Value: gain}}})
		}
		return f
	}
	rows := compareRuns(spec, file(100, 10, 10, 1, 2, 3, 4), file(80, 10.5, 5, 1, 2, 3, 4))
	want := map[string]verdict{"rate": regression, "lat": unchanged, "noisy": unresolved, "gain": better}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r.verdict != want[r.metric] {
			t.Errorf("%s: verdict %q, want %q (change %.3f spread %.3f)", r.metric, r.verdict, want[r.metric], r.change, r.spread)
		}
	}
	// The quartiles are Python's statistics.quantiles(v, n=4).
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}
