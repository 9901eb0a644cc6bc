package load

import (
	"testing"
)

// TestExternalTestSeesExportTest loads a module whose external test
// package uses what an export_test.go declares, the standard idiom for
// exporting to tests only: the external unit is type-checked against
// the package's test build and reports no error.
func TestExternalTestSeesExportTest(t *testing.T) {
	t.Setenv("GOFLAGS", "-mod=mod")
	t.Setenv("GOWORK", "off")
	pkgs, err := Load(Config{Dir: "testdata/xtest", Tests: true}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]bool{}
	for _, p := range pkgs {
		units[p.Unit] = true
		for _, err := range p.TypeErrors {
			t.Errorf("%s (%q unit): %v", p.PkgPath, p.Unit, err)
		}
	}
	for _, u := range []string{"", "test", "xtest"} {
		if !units[u] {
			t.Errorf("no %q unit loaded", u)
		}
	}
}
