package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// The experiments run on the simulator and print the same bytes on
// every run, so the output is pinned whole: a change that means to move
// a figure re-records the golden
// (go run ./cmd/horus-bench > cmd/horus-bench/testdata/output.golden)
// and says which figure moved and why.
func TestOutputMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment, about 2.5 s and half a minute under the race detector; tier-1 and CI's golden step run it")
	}
	var out bytes.Buffer
	if err := run(&out, nil); err != nil {
		t.Fatal(err)
	}
	matchGolden(t, out.Bytes(), "testdata/output.golden")
}

// matchGolden fails at the first line where got differs from the file.
func matchGolden(t *testing.T, got []byte, file string) {
	t.Helper()
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(g), len(w)) {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			t.Fatalf("output differs from %s at line %d\n got %q\nwant %q", file, i+1, at(g, i), at(w, i))
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of output)"
}

// The loss experiment prints one seed; its recovery is judged over
// twenty. Each row pins the median of the twenty p50s (the mean of the
// middle two) and the sender's retransmissions summed over the seeds,
// each at its measurement plus 10 %: a change to NAK's request rule that
// slows recovery or asks more than that fails here.
func TestLossSweep(t *testing.T) {
	for _, row := range []struct {
		loss        float64
		p50         time.Duration // measured median
		retransmits int           // measured sum
	}{
		{0.2, 17500 * time.Microsecond, 2692},
		{0.4, 195 * time.Millisecond, 10279},
	} {
		var p50s []time.Duration
		retransmits := 0
		for seed := int64(91); seed <= 110; seed++ {
			r := lossRun(seed, row.loss)
			p50s = append(p50s, r.p50)
			retransmits += r.retransmits
		}
		slices.Sort(p50s)
		median := (p50s[9] + p50s[10]) / 2
		t.Logf("%.0f%% loss, seeds 91-110: median p50 %v, %d retransmissions", row.loss*100, median, retransmits)
		if median > row.p50+row.p50/10 {
			t.Errorf("%.0f%% loss: median p50 %v, measured %v (+10 %% allowed)", row.loss*100, median, row.p50)
		}
		if retransmits > row.retransmits+row.retransmits/10 {
			t.Errorf("%.0f%% loss: %d retransmissions, measured %d (+10 %% allowed)", row.loss*100, retransmits, row.retransmits)
		}
	}
}
