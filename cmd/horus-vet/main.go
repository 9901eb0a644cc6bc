// Command horus-vet is the multichecker for the repo's own static
// analysis suite: it loads the packages matched by its arguments
// (default ./..., including test files) and applies the three
// analyzers under internal/analysis —
//
//	stackcheck  Table 3 well-formedness of constant stack literals
//	detlint     determinism contract of sim-driven packages, including
//	            wall-clock reads laundered through call chains
//	hcpilint    HCPI discipline: locks vs upcalls, header direction
//
// Diagnostics print one per line, go-vet style; the exit status is 1
// when anything was found, 2 on a load failure, 0 when clean. -json
// additionally emits the findings machine-readably (file, line,
// analyzer, message, call chain) for the CI artifact — to a file, or
// with "-" to stdout, in which case the text diagnostics move to
// stderr so stdout is one parseable document; -budget fails
// the run when analysis wall time exceeds the bound, so the
// interprocedural sweep cannot silently make CI crawl. CI runs
// horus-vet as a gating step; see DESIGN.md for the annotation
// contract (//horus:wallclock and friends).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"horus/internal/analysis"
	"horus/internal/analysis/detlint"
	"horus/internal/analysis/hcpilint"
	"horus/internal/analysis/load"
	"horus/internal/analysis/stackcheck"
)

// suite is the full analyzer set, in reporting order.
var suite = []*analysis.Analyzer{
	stackcheck.Analyzer,
	detlint.Analyzer,
	hcpilint.Analyzer,
}

// finding is one diagnostic in both the text and the -json streams.
type finding struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], load.Config{}, os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and load configuration
// (tests point cfg at an overlay package) passed in; it returns the
// exit status.
func run(args []string, cfg load.Config, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("horus-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tests := fs.Bool("tests", true, "analyze test files too")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := fs.String("json", "", `write machine-readable findings to this file ("-" = stdout)`)
	budget := fs.Duration("budget", 0, "fail when analysis wall time exceeds this bound (0 = no bound)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: horus-vet [flags] [package patterns]\n\nanalyzers:\n")
		for _, a := range suite {
			fmt.Fprintf(stderr, "  %-11s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, "horus-vet:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Stdout carries one stream: the JSON document when -json - asks
	// for it there, the text diagnostics otherwise.
	text := stdout
	if *jsonOut == "-" {
		text = stderr
	}
	cfg.Tests = *tests
	start := time.Now()
	findings, err := vet(text, cfg, analyzers, patterns)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(stderr, "horus-vet:", err)
		return 2
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, stdout, findings); err != nil {
			fmt.Fprintln(stderr, "horus-vet:", err)
			return 2
		}
	}
	exit := 0
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "horus-vet: %d finding(s)\n", len(findings))
		exit = 1
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(stderr, "horus-vet: analysis took %s, over the -budget bound %s — "+
			"an interprocedural pass has regressed; profile before raising the bound\n",
			elapsed.Round(time.Millisecond), *budget)
		exit = 1
	}
	return exit
}

// selectAnalyzers resolves a comma-separated -run list against the
// suite; empty means everything.
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// vet loads the patterns, applies the analyzers to every unit, prints
// sorted diagnostics to w, and returns the deduplicated findings.
// Type-check problems in loaded code are findings too: analysis over a
// package that does not compile cannot be trusted, and `go build`
// gates CI anyway.
func vet(w io.Writer, cfg load.Config, analyzers []*analysis.Analyzer, patterns []string) ([]finding, error) {
	pkgs, err := load.Load(cfg, patterns...)
	if err != nil {
		return nil, err
	}
	var findings []finding
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			findings = append(findings, finding{
				File: pkg.PkgPath, Analyzer: "load",
				Message: fmt.Sprintf("type error: %v", terr),
			})
		}
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				findings = append(findings, finding{
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Analyzer: d.Analyzer, Message: d.Message, Chain: d.Chain,
				})
			}
			if err := a.Run(pass); err != nil {
				return findings, fmt.Errorf("%s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	// The "test" unit re-analyzes the package's non-test files, so
	// identical findings appear once per unit; deduplicate.
	seen := make(map[string]bool)
	out := findings[:0]
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d:%d\x00%s", f.File, f.Line, f.Col, f.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, f)
		fmt.Fprintf(w, "%s: %s (%s)\n", posString(f), f.Message, f.Analyzer)
	}
	return out, nil
}

// posString renders a finding's location like go vet: file:line:col,
// degrading gracefully for package-level (load) findings.
func posString(f finding) string {
	if f.Line == 0 {
		return f.File
	}
	return fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col)
}

// writeJSON emits the findings array to the file at path, or to stdout
// when path is "-". An empty run writes [] rather than null so
// consumers can range unconditionally.
func writeJSON(path string, stdout io.Writer, findings []finding) error {
	if findings == nil {
		findings = []finding{}
	}
	data, err := json.MarshalIndent(findings, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
