package main

import (
	"bytes"
	"os"
	"testing"
)

// The narrated scenario runs on the simulator and prints the same bytes
// on every run; a change that means to move a line re-records the golden
// (go run ./cmd/horus-flush > cmd/horus-flush/testdata/output.golden)
// and says why.
func TestOutputMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output differs from testdata/output.golden\n got:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}
