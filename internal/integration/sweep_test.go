package integration

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"horus/internal/message"
	"horus/internal/netsim"
)

// TestVirtualSynchronySeedSweep hammers the §5 guarantee across many
// randomized fault schedules: for each seed, a 4-member group casts
// concurrently under loss/jitter while one random member crashes at a
// random moment. Survivors must (a) converge on the same 3-member
// view, (b) deliver identical message sets in every shared view,
// (c) never deliver duplicates, and (d) preserve per-sender FIFO.
func TestVirtualSynchronySeedSweep(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 7919))
			// Form the group on a clean network (formation under loss
			// is covered elsewhere), then degrade the links for the
			// crash phase.
			net := netsim.New(netsim.Config{Seed: seed, DefaultLink: netsim.Link{
				Delay: time.Millisecond,
			}})
			eps, groups, cols := buildGroup(t, net, 4, vsStack)
			net.SetDefaultLink(netsim.Link{
				Delay:    time.Millisecond,
				Jitter:   time.Duration(rng.Intn(4)) * time.Millisecond,
				LossRate: float64(rng.Intn(12)) / 100,
			})

			victim := rng.Intn(4)
			crashAt := time.Duration(20+rng.Intn(120)) * time.Millisecond
			base := net.Now()
			for i := 0; i < 32; i++ {
				i := i
				// Monotone per-sender cast times keep the FIFO oracle
				// simple; the crash instant and link faults stay random.
				at := base + time.Duration(i)*5*time.Millisecond
				net.At(at, func() {
					if i%4 == victim {
						return // the victim stays quiet for determinism of expectations
					}
					groups[i%4].Cast(message.New([]byte(fmt.Sprintf("m%d-%d", i%4, i))))
				})
			}
			net.At(base+crashAt, func() { net.Crash(eps[victim].ID()) })
			net.RunFor(8 * time.Second)

			survivors := make([]*vsCollector, 0, 3)
			for i, c := range cols {
				if i != victim {
					survivors = append(survivors, c)
				}
			}
			// (a) converge.
			ref := survivors[0].lastView()
			for _, c := range survivors {
				v := c.lastView()
				if v == nil || v.Size() != 3 || v.ID != ref.ID {
					t.Fatalf("%s: final view %v, ref %v", c.name, v, ref)
				}
			}
			// (b,c,d) per-view sets identical, no dups, FIFO.
			viewSeqs := map[uint64]bool{}
			for _, c := range survivors {
				for seq := range c.casts {
					viewSeqs[seq] = true
				}
			}
			for seq := range viewSeqs {
				var refSet map[string]bool
				var refName string
				for _, c := range survivors {
					in := false
					for _, v := range c.views {
						if v.ID.Seq == seq {
							in = true
						}
					}
					if !in {
						continue
					}
					set := map[string]bool{}
					lastPerSender := map[int]int{}
					for _, p := range c.casts[seq] {
						if set[p] {
							t.Fatalf("%s: duplicate %q in view %d", c.name, p, seq)
						}
						set[p] = true
						var sender, n int
						fmt.Sscanf(p, "m%d-%d", &sender, &n)
						if prev, ok := lastPerSender[sender]; ok && n <= prev {
							t.Fatalf("%s: FIFO violation in view %d: %v", c.name, seq, c.casts[seq])
						}
						lastPerSender[sender] = n
					}
					if refSet == nil {
						refSet, refName = set, c.name
						continue
					}
					if len(set) != len(refSet) {
						t.Fatalf("view %d: %s delivered %d, %s delivered %d",
							seq, c.name, len(set), refName, len(refSet))
					}
					for p := range refSet {
						if !set[p] {
							t.Fatalf("view %d: %s missing %q", seq, c.name, p)
						}
					}
				}
			}
			// Completeness: messages from survivors must all arrive
			// eventually (24 casts from 3 non-victims).
			total := 0
			for _, msgs := range survivors[0].casts {
				total += len(msgs)
			}
			if total != 24 {
				t.Fatalf("%s delivered %d messages overall, want 24", survivors[0].name, total)
			}
		})
	}
}
