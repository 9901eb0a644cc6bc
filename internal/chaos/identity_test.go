package chaos

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// identityModes are horus-chaos's four soak modes, by their flags.
var identityModes = []struct {
	name string
	cfg  GenConfig
}{
	{"default", GenConfig{}},
	{"-switch", GenConfig{Switch: true}},
	{"-harsh", GenConfig{Harsh: true}},
	{"-harsh-switch", GenConfig{Harsh: true, Switch: true}},
}

// identityLines runs seeds 1–25 of each soak mode and the pinned
// degradation pair at seed 11, one line each: the mode, the seed, the
// sha256 of the history digest and whether the run held.
func identityLines() []string {
	var lines []string
	for _, m := range identityModes {
		for seed := int64(1); seed <= 25; seed++ {
			c, err := RunSeed(seed, m.cfg, nil)
			digest, status := "-", "ok"
			if c != nil {
				digest = fmt.Sprintf("%x", sha256.Sum256([]byte(c.Digest())))
				if len(c.Check()) != 0 {
					status = "FAIL"
				}
			}
			if err != nil {
				status = "FAIL"
			}
			lines = append(lines, fmt.Sprintf("%s %d %s %s", m.name, seed, digest, status))
		}
	}
	for _, adaptive := range []bool{true, false} {
		mod, hvy := DegradePair(adaptive, 11)
		modRes, hvyRes := RunDegradation(mod), RunDegradation(hvy)
		arm, status := "adapt", "ok"
		if adaptive && len(CheckGracefulDegradation(modRes, hvyRes, 4*time.Second)) != 0 ||
			!adaptive && !GoodputInverted(modRes, hvyRes) {
			status = "FAIL"
		}
		if !adaptive {
			arm = "control"
		}
		lines = append(lines, fmt.Sprintf("-degrade 11 %s %s moderate[%v] heavy[%v] inverted=%v",
			arm, status, modRes, hvyRes, GoodputInverted(modRes, hvyRes)))
	}
	return lines
}

// TestIdentityGolden replays the chaos soak's first 25 seeds in each
// mode, and the degradation pair, against testdata/identity.golden: a
// change that claims to leave executions alone must leave every
// history digest, and every verdict, as recorded. A change that means
// to move timing re-records the file and says why.
func TestIdentityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("100 chaos seeds; skipped under -short")
	}
	f, err := os.Open("testdata/identity.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	got := identityLines()
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
	if t.Failed() {
		t.Logf("whole run:\n%s", strings.Join(got, "\n"))
	}
}
