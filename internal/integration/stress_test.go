package integration

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/merge"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
)

// TestCascadingCrashes kills two of five members in quick succession
// under heavy concurrent casting: the flush machinery must ride out a
// failure arriving in the middle of handling the previous one.
func TestCascadingCrashes(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 431, DefaultLink: netsim.Link{
		Delay: time.Millisecond, LossRate: 0.05,
	}})
	eps, groups, cols := buildGroup(t, net, 5, vsStack)

	base := net.Now()
	for i := 0; i < 50; i++ {
		i := i
		net.At(base+time.Duration(i)*4*time.Millisecond, func() {
			if i%5 >= 3 {
				return // the doomed members stay quiet
			}
			groups[i%5].Cast(message.New([]byte(fmt.Sprintf("m%d-%d", i%5, i))))
		})
	}
	// e dies at 60ms; d dies at 180ms — likely mid-flush for e.
	net.At(base+60*time.Millisecond, func() { net.Crash(eps[4].ID()) })
	net.At(base+180*time.Millisecond, func() { net.Crash(eps[3].ID()) })
	net.RunFor(8 * time.Second)

	for _, c := range cols[:3] {
		v := c.lastView()
		if v == nil || v.Size() != 3 {
			t.Fatalf("%s: final view %v, want 3 survivors", c.name, v)
		}
		total := 0
		for _, msgs := range c.casts {
			total += len(msgs)
		}
		if total != 30 {
			t.Errorf("%s: delivered %d of 30", c.name, total)
		}
	}
	assertIdenticalDeliveriesVS(t, cols[0], cols[1])
	assertIdenticalDeliveriesVS(t, cols[1], cols[2])
	assertIdenticalDeliveriesVS(t, cols[0], cols[2])
}

// TestFlappingPartition opens and heals the same partition three times
// in a row; each heal must reconverge to one view, and the epoch
// hygiene (stale-suspicion tags, future-epoch buffering, per-pair
// stream persistence) must survive the churn.
func TestFlappingPartition(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 433, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	mk := func() core.StackSpec {
		return core.StackSpec{
			merge.New,
			mbrship.NewWith(
				mbrship.WithGossipPeriod(40*time.Millisecond),
				mbrship.WithFlushTimeout(500*time.Millisecond),
			),
			nak.NewWith(
				nak.WithStatusPeriod(20*time.Millisecond),
				nak.WithNakResend(15*time.Millisecond),
				nak.WithSuspectAfter(6),
			),
			com.New,
		}
	}
	const n = 4
	eps, groups, cols := joinGroup(t, net, n, mk)
	net.RunFor(5 * time.Second)
	for _, c := range cols {
		if v := c.lastView(); v == nil || v.Size() != n {
			t.Fatalf("%s: formation failed: %v", c.name, v)
		}
	}

	for cycle := 0; cycle < 3; cycle++ {
		net.Partition(
			[]core.EndpointID{eps[0].ID(), eps[1].ID()},
			[]core.EndpointID{eps[2].ID(), eps[3].ID()},
		)
		net.RunFor(2500 * time.Millisecond)
		for _, c := range cols {
			if v := c.lastView(); v == nil || v.Size() != 2 {
				t.Fatalf("cycle %d: %s did not split: %v", cycle, c.name, v)
			}
		}
		net.Heal()
		net.RunFor(8 * time.Second)
		for _, c := range cols {
			if v := c.lastView(); v == nil || v.Size() != n {
				t.Fatalf("cycle %d: %s did not re-merge: %v", cycle, c.name, v)
			}
		}
		// Communication is intact after every cycle.
		marker := fmt.Sprintf("alive-%d", cycle)
		net.At(net.Now(), func() {
			groups[cycle%n].Cast(message.New([]byte(marker)))
		})
		net.RunFor(time.Second)
		for _, c := range cols {
			got := c.casts[c.lastView().ID.Seq]
			found := false
			for _, p := range got {
				if p == marker {
					found = true
				}
			}
			if !found {
				t.Fatalf("cycle %d: %s missed %q: %v", cycle, c.name, marker, got)
			}
		}
	}
}
