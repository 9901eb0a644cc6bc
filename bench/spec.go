package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec mirrors BENCHMARK.json: the names, units, directions and
// bounds the benchmark is held to. The program reads them from the
// file rather than repeating them, so the two cannot drift apart;
// bench_test.go checks the reverse direction (every name in the file
// is emitted).
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory when run through bench/run.sh, its parent under `go test`.
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: %w", lastErr)
}

func (s *benchSpec) metrics(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metric looks a name up in both lists.
func (s *benchSpec) metric(name string) (specMetric, bool) {
	for _, l := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range l {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}
