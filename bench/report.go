package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// metricValue is one reported number. Samples says how many
// observations stand behind it: latency samples for a percentile,
// slices for a rate, set-ups for setup_s.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// workloadResult is one workload's part of the -json output.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Stack     string                 `json:"stack"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Failures  failures               `json:"failures"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Extra holds numbers the run produced that BENCHMARK.json does not
	// bound for this mode (e.g. view-change times in an untraced churn
	// run, which the contract only lets us publish as per-layer).
	Extra map[string]metricValue `json:"extra,omitempty"`
	Table []layerRow             `json:"layer_table,omitempty"`
}

// runFile is the -json output: one run of the command.
type runFile struct {
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"nproc"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Workloads  []workloadResult `json:"workloads"`
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and resolves units from the spec.
type metricSet struct {
	spec   *benchSpec
	values map[string]metricValue
}

func newMetricSet(spec *benchSpec) *metricSet {
	return &metricSet{spec: spec, values: make(map[string]metricValue)}
}

func (m *metricSet) set(name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	sm, _ := m.spec.metric(name)
	m.values[name] = metricValue{Value: v, Unit: sm.Unit, Samples: samples}
}

// split separates the metrics the contract wants for this mode from
// the rest, and fails if one is missing.
func (m *metricSet) split(traced bool) (metrics, extra map[string]metricValue, err error) {
	metrics, extra = make(map[string]metricValue), make(map[string]metricValue)
	for _, sm := range m.spec.metrics(traced) {
		v, ok := m.values[sm.Name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", sm.Name)
		}
		metrics[sm.Name] = v
	}
	for name, v := range m.values {
		if _, ok := metrics[name]; !ok {
			extra[name] = v
		}
	}
	return metrics, extra, nil
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(m *metricSet, out *outcome) {
	setups := make([]float64, len(out.setups))
	for i, d := range out.setups {
		setups[i] = d.Seconds()
	}
	m.set("setup_s", median(setups), len(setups))
	m.set("deliveries_per_cpu_s", out.ph.deliveriesPerCPUSecond(), slices)
	n := int(out.ph.deliveries())
	m.set("allocs_per_delivery", out.ph.allocsPerDelivery(), n)
	m.set("alloc_bytes_per_delivery", out.ph.allocBytesPerDelivery(), n)
	m.set("wire_bytes_per_app_byte", out.ph.wireBytesPerAppByte(), n)
	q, mean, n := latencyStats(out.lat, 0.50, 0.95, 0.99)
	m.set("latency_p50_ms", q[0], n)
	m.set("bench.latency_mean_ms", mean, n)
	m.set("bench.latency_p95_ms", q[1], n)
	m.set("bench.latency_p99_ms", q[2], n)
}

func printResult(w io.Writer, spec *benchSpec, r *workloadResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  stack=%s  seed=%d  %s\n", r.Workload, r.Stack, r.Seed, mode)
	fmt.Fprintf(w, "   operations: attempted=%d failed=%d", r.Attempted, r.Failed)
	if r.Failed > 0 {
		fmt.Fprintf(w, " (%s)", r.Failures)
	}
	fmt.Fprintln(w)
	for _, sm := range spec.metrics(r.Traced) {
		v := r.Metrics[sm.Name]
		fmt.Fprintf(w, "   %-40s %16.6g %-6s n=%d\n", sm.Name, v.Value, v.Unit, v.Samples)
	}
	if len(r.Extra) > 0 {
		names := make([]string, 0, len(r.Extra))
		for n := range r.Extra {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "   -- not bounded in this mode:")
		for _, n := range names {
			v := r.Extra[n]
			fmt.Fprintf(w, "   %-40s %16.6g %-6s n=%d\n", n, v.Value, v.Unit, v.Samples)
		}
	}
	if len(r.Table) > 0 {
		printLayerTable(w, r)
	}
}

func (r *workloadResult) contract() contractLine {
	c := contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]contractMetric, len(r.Metrics))}
	for n, v := range r.Metrics {
		c.Metrics[n] = contractMetric{Value: v.Value, Unit: v.Unit}
	}
	return c
}

func writeRunFile(path string, seed int64, seconds float64, results []workloadResult) error {
	f := runFile{Seed: seed, Seconds: seconds, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Workloads: results}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
