package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// -compare base.json new.json applies the bounds of BENCHMARK.json to
// two -json files. Each file may hold several runs of a workload (made
// with -runs); a side's value is the median over its runs and its
// spread the distance between their quartiles as a share of the median.

// verdict of one workload × metric row.
type verdict string

const (
	unchanged  verdict = "unchanged"
	better     verdict = "better"
	regression verdict = "REGRESSION"
	unresolved verdict = "unresolved" // the spread exceeds the bound: the runs cannot tell
	unbounded  verdict = ""           // per-layer metrics have no bound
)

type compareRow struct {
	workload, metric, unit string
	base, cand             float64 // medians
	spread                 float64 // the larger of the two sides' spreads
	change                 float64 // (cand-base)/base, positive = worse
	verdict                verdict
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method),
// which is what the acceptance procedure uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside [0,4] when clamped: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func spreadOf(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

// collect groups a file's values by (workload, traced, metric).
func collect(f *runFile) map[[2]string]map[string][]float64 {
	out := make(map[[2]string]map[string][]float64)
	for _, w := range f.Workloads {
		k := [2]string{w.Workload, fmt.Sprint(w.Traced)}
		if out[k] == nil {
			out[k] = make(map[string][]float64)
		}
		for name, v := range w.Metrics {
			out[k][name] = append(out[k][name], v.Value)
		}
	}
	return out
}

// compareRuns builds the rows for every workload × metric both files
// have, in BENCHMARK.json order.
func compareRuns(spec *benchSpec, base, cand *runFile) []compareRow {
	b, c := collect(base), collect(cand)
	var rows []compareRow
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			k := [2]string{w.Name, fmt.Sprint(traced)}
			for _, sm := range spec.metrics(traced) {
				bv, cv := b[k][sm.Name], c[k][sm.Name]
				if len(bv) == 0 || len(cv) == 0 {
					continue
				}
				r := compareRow{workload: w.Name, metric: sm.Name, unit: sm.Unit,
					base: median(bv), cand: median(cv), spread: spreadOf(bv)}
				if s := spreadOf(cv); s > r.spread {
					r.spread = s
				}
				r.change = ratio(r.cand-r.base, r.base)
				if sm.Better == "higher" {
					r.change = -r.change
				}
				switch {
				case traced:
					r.verdict = unbounded
				case r.change > sm.Bound:
					r.verdict = regression
				case r.spread > sm.Bound:
					r.verdict = unresolved
				case r.change < -sm.Bound:
					r.verdict = better
				default:
					r.verdict = unchanged
				}
				rows = append(rows, r)
			}
		}
	}
	return rows
}

func compareFiles(spec *benchSpec, basePath, candPath string) int {
	base, err := readRunFile(basePath)
	if err != nil {
		return fail(err)
	}
	cand, err := readRunFile(candPath)
	if err != nil {
		return fail(err)
	}
	rows := compareRuns(spec, base, cand)
	if len(rows) == 0 {
		return fail(fmt.Errorf("%s and %s share no workload", basePath, candPath))
	}
	fmt.Printf("%-20s %-36s %14s %14s %-6s %9s %9s  %s\n",
		"workload", "metric", "base", "new", "unit", "worse by", "spread", "verdict")
	exit := 0
	for _, r := range rows {
		fmt.Printf("%-20s %-36s %14.6g %14.6g %-6s %8.2f%% %8.2f%%  %s\n",
			r.workload, r.metric, r.base, r.cand, r.unit, 100*r.change, 100*r.spread, r.verdict)
		if r.verdict == regression {
			exit = 1
		}
	}
	return exit
}
