package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"horus/internal/analysis/load"
)

// malformedStack writes a throwaway package holding the canonical
// ill-formed literal — one stackcheck finding — and returns the load
// configuration that overlays it at badmod/bad.
func malformedStack(t *testing.T) load.Config {
	t.Helper()
	dir := t.TempDir()
	src := `package bad

import "horus/internal/stackreg"

var _, _ = stackreg.Build("TOTAL:COM", 1)
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return load.Config{Overlay: map[string]string{"badmod/bad": dir}}
}

// TestVetFlagsMalformedStack drives the whole pipeline — load,
// analyze, print, count — over the overlay package.
func TestVetFlagsMalformedStack(t *testing.T) {
	var buf bytes.Buffer
	findings, err := vet(&buf, malformedStack(t), suite, []string{"badmod/bad"})
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	if len(findings) != 1 {
		t.Fatalf("vet found %d findings, want 1\n%s", len(findings), buf.String())
	}
	for _, want := range []string{"malformed stack", "TOTAL:COM", "stackcheck"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestJSONToStdout pins the "-json -" mode: with a finding to report,
// stdout is the JSON array and nothing else, and the text diagnostic
// goes to stderr.
func TestJSONToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-", "badmod/bad"}, malformedStack(t), &stdout, &stderr); code != 1 {
		t.Fatalf("exit status %d, want 1\n%s", code, stderr.String())
	}
	var findings []finding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, stdout.String())
	}
	if len(findings) != 1 || findings[0].Analyzer != "stackcheck" {
		t.Fatalf("findings = %+v, want the one stackcheck finding", findings)
	}
	if !strings.Contains(stderr.String(), "malformed stack") {
		t.Errorf("stderr lacks the text diagnostic:\n%s", stderr.String())
	}
}

// TestVetCleanPackage checks the zero-findings path over a real,
// disciplined module package.
func TestVetCleanPackage(t *testing.T) {
	var buf bytes.Buffer
	findings, err := vet(&buf, load.Config{Dir: "../.."}, suite, []string{"./internal/property"})
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	if len(findings) != 0 {
		t.Fatalf("vet found %d findings on internal/property, want 0\n%s", len(findings), buf.String())
	}
}

// TestVetJSONShape pins the machine-readable stream: a wall-clock
// read laundered out of an exempt file must surface with file, line,
// analyzer, message, and the interprocedural chain.
func TestVetJSONShape(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"bridge.go": `//horus:wallclock — test: the exempt side of a laundering chain
package leak

import "time"

func wallNow() time.Time { return time.Now() }
`,
		"leak.go": `package leak

import "time"

func stamp() time.Time { return wallNow() }
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	// The overlay path must sit under horus/internal/ for detlint's
	// scope check.
	cfg := load.Config{Dir: "../..", Overlay: map[string]string{"horus/internal/layers/leak": dir}}
	findings, err := vet(&buf, cfg, suite, []string{"horus/internal/layers/leak"})
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	var hit *finding
	for i := range findings {
		if findings[i].Analyzer == "detlint" {
			hit = &findings[i]
		}
	}
	if hit == nil {
		t.Fatalf("no detlint finding in %v\n%s", findings, buf.String())
	}
	if hit.Line == 0 || !strings.HasSuffix(hit.File, "leak.go") {
		t.Errorf("finding lacks position: %+v", *hit)
	}
	if !strings.Contains(hit.Message, "wall clock escape: time.Now") {
		t.Errorf("finding message = %q, want a laundered wall-clock diagnostic", hit.Message)
	}
	if len(hit.Chain) == 0 || !strings.Contains(hit.Chain[0], "wallNow") {
		t.Errorf("finding chain = %v, want the wallNow hop", hit.Chain)
	}
	data, err := json.Marshal(findings)
	if err != nil {
		t.Fatalf("findings do not marshal: %v", err)
	}
	for _, key := range []string{`"file"`, `"line"`, `"analyzer"`, `"message"`, `"chain"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("JSON stream missing %s: %s", key, data)
		}
	}
}

// TestWriteJSONEmpty pins that a clean run writes [] rather than null.
func TestWriteJSONEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "findings.json")
	if err := writeJSON(path, nil, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(data)); got != "[]" {
		t.Errorf("empty findings serialize as %q, want []", got)
	}
}

func TestSelectAnalyzers(t *testing.T) {
	names := []string{"stackcheck", "detlint", "hcpilint"}
	all, err := selectAnalyzers("")
	if err != nil || len(all) != len(names) {
		t.Fatalf("empty -run: got %d analyzers, want %d, err %v", len(all), len(names), err)
	}
	for _, name := range names {
		one, err := selectAnalyzers(name)
		if err != nil || len(one) != 1 || one[0].Name != name {
			t.Fatalf("-run %s: got %v, err %v", name, one, err)
		}
	}
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Fatal("-run nosuch: expected error")
	}
}
