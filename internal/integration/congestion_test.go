package integration

// Congestion-collapse conformance, sim-only and fully deterministic:
// the per-host egress budget (netsim.Host) must produce true collapse
// — goodput falling as offered load rises, not merely delay — and the
// full chaos stack must survive a squeeze that starves its own
// retransmission traffic.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"horus/internal/chaos"
	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
)

// TestChaosCongestionRegression pins the recipe that exercises the
// egress-budget machinery against the full MBRSHIP:HBEAT:NAK:COM
// stack: one member's total outgoing budget is squeezed far below the
// aggregate demand of its workload casts, heartbeats, and NAK
// retransmissions, with a queue bound tight enough that the overflow
// drops. The cluster must still reach view agreement after the squeeze
// lifts, with every virtual-synchrony invariant intact — congestion
// collapse at one host is load, not Byzantine behaviour. The whole run
// is simulated, so it must replay identically (-count=2 in CI).
func TestChaosCongestionRegression(t *testing.T) {
	run := func() (netsim.Stats, []error) {
		link := netsim.Link{Delay: time.Millisecond, Jitter: 2 * time.Millisecond, LossRate: 0.02}
		c := chaos.NewCluster(chaos.Config{Seed: 17, Members: 4, Link: link})
		defer c.Close()
		if err := c.Form(6 * time.Second); err != nil {
			t.Fatalf("formation: %v", err)
		}
		// 400 B/s shared across three peers is well under one member's
		// demand (each cast alone fans out ~3 wire copies every 70ms);
		// a 100-byte queue bound turns the excess into collapse drops.
		sched := chaos.EgressSqueeze(500*time.Millisecond, 1200*time.Millisecond, 1, 400, 100)
		c.Apply(sched)
		c.Run(sched.End() + 500*time.Millisecond)
		if err := c.Settle(10 * time.Second); err != nil {
			t.Fatalf("settle after egress squeeze: %v", err)
		}
		// The default fabric is the simulator, whose ledger it embeds.
		ledger := c.Fabric().(interface{ Stats() netsim.Stats })
		return ledger.Stats(), c.Check()
	}

	st, errs := run()
	for _, e := range errs {
		t.Errorf("invariant: %v", e)
	}
	if st.Congested == 0 {
		t.Error("squeeze never congested the host bucket")
	}
	if st.CollapseDropped == 0 {
		t.Error("squeeze never overflowed the bounded egress queue")
	}

	st2, errs2 := run()
	if st != st2 || len(errs) != len(errs2) {
		t.Errorf("congestion regression diverged across runs:\n%+v\n%+v", st, st2)
	}
}

// TestEgressGoodputCollapse demonstrates the collapse curve itself:
// over a reliable-FIFO stack (NAK:COM) whose sender is capped by a
// tight egress budget, pushing the offered load past the budget makes
// goodput — casts delivered in order within a fixed window — go DOWN,
// not up. The bounded queue drops frames, every hole stalls FIFO
// delivery until a retransmission fills it, and the retransmissions
// compete with fresh casts for the same budget; past saturation the
// extra offered load only buys more drops. Delay alone (an unbounded
// queue) could never produce this inversion.
func TestEgressGoodputCollapse(t *testing.T) {
	// goodput offers `n` 120-byte casts at one per `gap`, then reports
	// how many the receiver delivered within the fixed 8s window.
	goodput := func(n int, gap time.Duration) (delivered int, st netsim.Stats) {
		net := netsim.New(netsim.Config{Seed: 23, DefaultLink: netsim.Link{
			Delay: time.Millisecond,
		}})
		spec := core.StackSpec{nak.New, com.New}
		ga, _, _, cb := staticPair(t, net, spec)
		sender := ga.Endpoint().ID()
		// 4.1 KB/s against 120-byte casts plus protocol framing: a 50ms
		// send gap undershoots the budget, a 10ms gap swamps it. The
		// squeeze was 6000/600 while header integers were fixed-width;
		// both are scaled by the ratio of this stack's egress bytes on
		// the moderate load since (39 788 / 58 258).
		net.SetHost(sender, netsim.Host{EgressBudget: 4100, EgressQueue: 410})
		for i := 0; i < n; i++ {
			i := i
			net.At(time.Duration(i)*gap, func() {
				ga.Cast(message.New([]byte(payload120(i))))
			})
		}
		net.RunUntil(8 * time.Second)
		// Goodput is the in-order prefix: casts past the first hole are
		// buffered by NAK, not delivered, so they don't count.
		for i, got := range cb.casts {
			if got != payload120(i) {
				break
			}
			delivered++
		}
		return delivered, net.Stats()
	}

	// Moderate load: 20 casts/s for 7 of the 8 seconds stays inside
	// the budget — everything offered is delivered, nothing drops.
	moderate, mst := goodput(140, 50*time.Millisecond)
	// Heavy load: 100 casts/s swamps the same budget. MORE casts are
	// offered than at moderate load, in less time, yet FEWER must come
	// out the far end in order — the collapse inversion.
	heavy, hst := goodput(300, 10*time.Millisecond)

	if mst.CollapseDropped != 0 {
		t.Errorf("moderate load inside the budget dropped %d frames", mst.CollapseDropped)
	}
	if moderate != 140 {
		t.Errorf("moderate load delivered %d/140 casts in the window", moderate)
	}
	if hst.CollapseDropped == 0 {
		t.Error("heavy load never overflowed the egress queue — no collapse exercised")
	}
	if heavy >= moderate {
		t.Errorf("no collapse: offering 5x the load delivered %d casts vs %d at moderate load",
			heavy, moderate)
	}
}

// payload120 is a 120-byte tagged cast body, big enough that a handful
// of casts saturates the test budget.
func payload120(i int) string {
	head := fmt.Sprintf("cast%03d|", i)
	return head + strings.Repeat("x", 120-len(head))
}
