package main

import (
	"slices"
	"testing"
)

func TestParseGrid(t *testing.T) {
	for _, tc := range []struct {
		sweep, loads string
		rate         float64
		want         []float64 // nil: an error
	}{
		{"", "", 200, []float64{200}},
		{"", "", 0, nil},
		{"", "", -5, nil},
		{"", "50, 100", 0, []float64{50, 100}},
		{"", "0,50", 200, nil},
		{"", "50,-1", 200, nil},
		{"", "50,NaN", 200, nil},
		{"", "50,x", 200, nil},
		{"50:200:3", "", 0, []float64{50, 100, 200}},
		{"50:200:3", "75", 200, []float64{75}},
		{"0:200:3", "", 200, nil},
		{"200:50:3", "", 200, nil},
		{"50:200", "", 200, nil},
		{"50:200:0", "", 200, nil},
	} {
		got, err := parseGrid(tc.sweep, tc.loads, tc.rate)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseGrid(%q, %q, %v) = %v, want an error", tc.sweep, tc.loads, tc.rate, got)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("parseGrid(%q, %q, %v) = %v, %v; want %v", tc.sweep, tc.loads, tc.rate, got, err, tc.want)
		}
	}
}
