package chaos

import (
	"math/rand"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/netsim"
	"horus/internal/property"
	"horus/internal/stackreg"
)

// TestSec7ChurnFreshIncarnationsCastAtOnce runs the paper's §7 stack
// through crash/recover churn at the churn benchmark's settings: four
// members, a cast per member every 5 ms, a merge attempt every 10 ms,
// and one crash per 2 s cycle that recovers 1 s later, at an offset
// into its cycle the seed draws from the first 200 ms. A fresh
// incarnation casts from its first tick, before any merge has reached
// it. MBRSHIP once parked casts from the moment of a merge request and
// released them into the merged view, where the order TOTAL had stamped
// them with in the singleton view collided with real stamps; every
// checker must now come out clean.
func TestSec7ChurnFreshIncarnationsCastAtOnce(t *testing.T) {
	const (
		members = 4
		cycle   = 2 * time.Second
		cycles  = 2
	)
	digests := map[string]int64{}
	for _, seed := range []int64{1, 2} {
		c := NewCluster(Config{
			Seed:           seed,
			Members:        members,
			Link:           netsim.Link{Delay: time.Millisecond},
			CastEvery:      5 * time.Millisecond,
			ReconcileEvery: 10 * time.Millisecond,
			Stack: func() core.StackSpec {
				return stackreg.MustBuild("TOTAL:MBRSHIP:FRAG:NAK:COM", property.P1)
			},
		})
		if err := c.Form(20 * time.Second); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed))
		var s Schedule
		for k := 0; k < cycles; k++ {
			at := time.Duration(k)*cycle + time.Duration(rng.Int63n(int64(200*time.Millisecond)))
			s = append(s, CrashRecover(at, time.Second, k%members)...)
		}
		c.Apply(s)
		c.Run(cycles * cycle)
		if err := c.Settle(10 * time.Second); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c.Run(time.Second)
		if errs := c.Check(); len(errs) > 0 {
			t.Errorf("seed %d: %d violations, the first: %v", seed, len(errs), errs[0])
		}
		if other, ok := digests[c.Digest()]; ok {
			t.Errorf("seeds %d and %d ran the same history", other, seed)
		}
		digests[c.Digest()] = seed
	}
}
