// Package load type-checks Go packages for the horus-vet analyzers
// without golang.org/x/tools. It shells out to `go list -export
// -deps -json` for package metadata and compiler export data (the
// build cache pays for itself: dependencies are imported from export
// data, never re-type-checked), parses the target packages' sources
// with go/parser, and type-checks them with go/types against a gc
// importer fed from the export files.
//
// The loader also supports an overlay — a map of import path to
// source directory — so the analysistest harness can type-check
// fixture packages under testdata/src/ that import each other, real
// module packages, and the standard library, all through the same
// resolver.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked unit handed to analyzers: a package's
// non-test sources, the package recompiled with its in-package test
// files, or an external _test package.
type Package struct {
	// PkgPath is the import path ("horus/internal/layers/com").
	PkgPath string
	// Unit distinguishes the three variants of one import path:
	// "" (the package proper), "test" (with in-package _test.go
	// files), "xtest" (the external foo_test package).
	Unit string
	Fset *token.FileSet
	// Files are the parsed sources of this unit, with comments.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-check errors; analyzers still
	// run over partially checked packages so one broken file does
	// not hide findings elsewhere.
	TypeErrors []error
}

// Config parameterizes Load.
type Config struct {
	// Dir is the directory go list runs in; it must lie inside the
	// module. Empty means the current directory.
	Dir string
	// Tests includes the "test" and "xtest" units of each matched
	// package, and an overlay package's in-package _test.go files.
	Tests bool
	// Overlay maps import paths to directories whose *.go files
	// form the package, bypassing go list. Fixture packages for
	// analysistest live here.
	Overlay map[string]string
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	ForTest      string // for a package built for a test: the package under test
	DepOnly      bool
	Incomplete   bool
	Error        *struct{ Err string }
}

// resolver owns the fileset, the export-data index, and the overlay
// cache, and implements types.Importer for every type-check the
// loader performs.
type resolver struct {
	dir     string
	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	gc      types.Importer
	overlay map[string]string // import path -> source dir
	cache   map[string]*types.Package
	pending map[string]bool // overlay cycle guard
}

func newResolver(dir string, fset *token.FileSet) *resolver {
	r := &resolver{
		dir:     dir,
		fset:    fset,
		exports: make(map[string]string),
		cache:   make(map[string]*types.Package),
		pending: make(map[string]bool),
	}
	r.gc = importer.ForCompiler(r.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := r.exports[path]
		if !ok {
			// Last-resort single lookup; pre-scans batch the
			// common cases into one go list run.
			if _, err := r.list(nil, path); err != nil {
				return nil, err
			}
			if file, ok = r.exports[path]; !ok {
				return nil, fmt.Errorf("load: no export data for %q", path)
			}
		}
		return os.Open(file)
	})
	return r
}

// list runs go list -export with flags (-deps walks the dependency
// closure, -test adds the packages built for tests) over patterns,
// records export files, and returns every package it lists in command
// order.
func (r *resolver) list(flags []string, patterns ...string) ([]*listedPackage, error) {
	args := append(append([]string{"list", "-e", "-export", "-json"}, flags...), patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = r.dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		if p.Export != "" {
			r.exports[p.ImportPath] = p.Export
		}
		listed = append(listed, p)
	}
	return listed, nil
}

// Import implements types.Importer: overlay packages are type-checked
// from source on first use, everything else comes from export data.
func (r *resolver) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := r.cache[path]; ok {
		return pkg, nil
	}
	if dir, ok := r.overlay[path]; ok {
		if r.pending[path] {
			return nil, fmt.Errorf("load: import cycle through overlay package %q", path)
		}
		r.pending[path] = true
		defer delete(r.pending, path)
		files, err := r.parseDir(dir, false)
		if err != nil {
			return nil, err
		}
		pkg, _, errs := r.check(path, files)
		if len(errs) > 0 {
			return pkg, fmt.Errorf("load: overlay package %q: %v", path, errs[0])
		}
		r.cache[path] = pkg
		return pkg, nil
	}
	pkg, err := r.gc.Import(path)
	if err != nil {
		return nil, err
	}
	r.cache[path] = pkg
	return pkg, nil
}

// check type-checks one unit, collecting soft errors.
func (r *resolver) check(pkgpath string, files []*ast.File) (*types.Package, *types.Info, []error) {
	var soft []error
	conf := types.Config{
		Importer: r,
		Error:    func(err error) { soft = append(soft, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, _ := conf.Check(pkgpath, r.fset, files, info)
	return pkg, info, soft
}

// parseFiles parses named files from dir.
func (r *resolver) parseFiles(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// parseDir parses every .go file in dir, with or without _test.go
// files, in name order for determinism.
func (r *resolver) parseDir(dir string, tests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load: %v", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	return r.parseFiles(dir, names)
}

// prefetchImports batches export-data resolution for every import of
// the given files not already known, so per-import go list runs stay
// the exception.
func (r *resolver) prefetchImports(files []*ast.File) {
	seen := make(map[string]bool)
	var missing []string
	for _, f := range files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path == "unsafe" || path == "C" || seen[path] {
				continue
			}
			seen[path] = true
			if _, ok := r.exports[path]; ok {
				continue
			}
			if _, ok := r.overlay[path]; ok {
				continue
			}
			missing = append(missing, path)
		}
	}
	if len(missing) > 0 {
		// Errors surface later as "no export data" type errors on
		// the specific import.
		_, _ = r.list([]string{"-deps"}, missing...)
	}
}

// Load type-checks the packages matched by patterns (and, with
// cfg.Tests, their test variants). Patterns naming overlay packages
// load from the overlay; everything else goes through go list.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	r := newResolver(cfg.Dir, token.NewFileSet())
	r.overlay = cfg.Overlay

	var overlayRoots, listPatterns []string
	for _, p := range patterns {
		if _, ok := cfg.Overlay[p]; ok {
			overlayRoots = append(overlayRoots, p)
		} else {
			listPatterns = append(listPatterns, p)
		}
	}

	var listed []*listedPackage
	if len(listPatterns) > 0 {
		var err error
		listed, err = r.list([]string{"-deps"}, listPatterns...)
		if err != nil {
			return nil, err
		}
	}

	// `go test` compiles an external test package against its
	// package's test build (the package with its in-package test files,
	// so what an export_test.go declares is visible) and recompiles
	// whatever imports the package too. builds maps each package under
	// test to those builds' export data, by plain import path.
	var tested []string
	for _, lp := range listed {
		if cfg.Tests && !lp.DepOnly && len(lp.TestGoFiles) > 0 && len(lp.XTestGoFiles) > 0 {
			tested = append(tested, lp.ImportPath)
		}
	}
	builds := make(map[string]map[string]string)
	if len(tested) > 0 {
		variants, err := r.list([]string{"-deps", "-test"}, tested...)
		if err != nil {
			return nil, err
		}
		for _, p := range variants {
			if plain, _, ok := strings.Cut(p.ImportPath, " ["); ok && p.ForTest != "" && p.Export != "" {
				if builds[p.ForTest] == nil {
					builds[p.ForTest] = make(map[string]string)
				}
				builds[p.ForTest][plain] = p.Export
			}
		}
	}

	var out []*Package
	addUnit := func(r *resolver, pkgpath, unit string, files []*ast.File) {
		r.prefetchImports(files)
		pkg, info, errs := r.check(pkgpath, files)
		// Only overlay packages enter the importer cache: listed
		// packages must keep importing each other through export
		// data, or two objects for one path (source-checked here,
		// export-imported elsewhere) would fail to unify and report
		// phantom type errors. Tests of a package P never create the
		// mismatch for P itself — a dependency of P's test files
		// importing P would be an import cycle.
		if _, isOverlay := r.overlay[pkgpath]; isOverlay && unit == "" {
			r.cache[pkgpath] = pkg
		}
		out = append(out, &Package{
			PkgPath: pkgpath, Unit: unit, Fset: r.fset,
			Files: files, Types: pkg, Info: info, TypeErrors: errs,
		})
	}

	for _, path := range overlayRoots {
		files, err := r.parseDir(cfg.Overlay[path], cfg.Tests)
		if err != nil {
			return nil, err
		}
		addUnit(r, path, "", files)
	}

	for _, lp := range listed {
		if lp.DepOnly {
			continue
		}
		if lp.Error != nil && len(lp.GoFiles) == 0 {
			return nil, fmt.Errorf("load: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.CgoFiles) > 0 {
			// Raw cgo sources don't type-check without the
			// generated glue; none exist in this module.
			continue
		}
		files, err := r.parseFiles(lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		addUnit(r, lp.ImportPath, "", files)

		if !cfg.Tests {
			continue
		}
		if len(lp.TestGoFiles) > 0 {
			testFiles, err := r.parseFiles(lp.Dir, lp.TestGoFiles)
			if err != nil {
				return nil, err
			}
			// The in-package test unit re-checks the package with
			// its test files; the cached export-data version keeps
			// serving other importers.
			addUnit(r, lp.ImportPath, "test", append(append([]*ast.File(nil), files...), testFiles...))
		}
		if len(lp.XTestGoFiles) > 0 {
			xFiles, err := r.parseFiles(lp.Dir, lp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			xr := r
			if build := builds[lp.ImportPath]; build != nil {
				xr = newResolver(r.dir, r.fset)
				xr.overlay = r.overlay
				maps.Copy(xr.exports, r.exports)
				maps.Copy(xr.exports, build)
			}
			addUnit(xr, lp.ImportPath+"_test", "xtest", xFiles)
		}
	}
	return out, nil
}
