package integration

// Pinned SWITCH reconfiguration scenarios, asserted on both fabrics.
//
// Two stories anchor the tentpole guarantees:
//
//   - A clean FIFO→TOTAL upgrade: one KindSwitch action on a calm
//     cluster must leave every member running TOTAL in the final view,
//     and every cast delivered there must be totally ordered (the
//     checker is only satisfiable if ordering actually tightened).
//
//   - A switch aborted by a mid-quiesce partition: the partition lands
//     before the proposal, so the far side's markers can never arrive;
//     the view edge must abort the attempt, roll back to the old
//     segment with zero lost or duplicated casts, and the old stack
//     must keep delivering — and passing every virtual-synchrony
//     invariant — afterwards.
//
// On the simulated fabric both scenarios additionally pin determinism:
// two runs of the same seed must produce byte-identical digests, so a
// future regression replays exactly. The UDP twins run the same typed
// schedules at wall-clock speed (no digest equality there — kernel
// timing is not seeded) and are skipped under -short.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"horus/internal/chaos"
	"horus/internal/chaosnet"
	"horus/internal/netsim"
)

// switchCalmLink is lossless: the abort scenario asserts *zero* lost
// casts, which is only a fair demand when the only faults in the run
// are the scheduled partition and the switch itself.
var switchCalmLink = netsim.Link{Delay: time.Millisecond, Jitter: 2 * time.Millisecond}

// upgradeSchedule is the pinned FIFO→TOTAL story: one switch request,
// issued from slot 0 half a second in.
func upgradeSchedule() chaos.Schedule {
	return chaos.Schedule{
		{At: 500 * time.Millisecond, Kind: chaos.KindSwitch, A: 0, Target: "TOTAL",
			Note: "pinned upgrade"},
	}
}

// abortSchedule partitions the cluster 2|2 just before slot 0 asks for
// the upgrade: the PROPOSE reaches only slot 0's side, the markers of
// slots 2 and 3 can never arrive, and the membership view change that
// splits the group must abort the attempt — a switch has no deadline of
// its own. The heal arrives after the abort is forced.
func abortSchedule() chaos.Schedule {
	return chaos.Schedule{
		{At: 500 * time.Millisecond, Kind: chaos.KindPartition,
			Sides: [][]int{{0, 1}, {2, 3}}, Note: "cut mid-quiesce"},
		{At: 510 * time.Millisecond, Kind: chaos.KindSwitch, A: 0, Target: "TOTAL",
			Note: "doomed upgrade"},
		{At: 1500 * time.Millisecond, Kind: chaos.KindHeal, Note: "heal"},
	}
}

// runSwitchScenario forms a 4-member cluster on the SWITCH stack over
// the given fabric (nil = simulated), applies the schedule, lets the
// run settle back to one full view, and returns the quiescent cluster.
func runSwitchScenario(t *testing.T, seed int64, fab chaos.Fabric, sched chaos.Schedule,
	formBy, settleBy time.Duration) *chaos.Cluster {
	t.Helper()
	c := chaos.NewCluster(chaos.Config{
		Seed: seed, Members: 4, Link: switchCalmLink,
		Stack: chaos.SwitchStack, Fabric: fab,
	})
	if err := c.Form(formBy); err != nil {
		c.Close()
		t.Fatalf("formation: %v", err)
	}
	c.Apply(sched)
	c.Run(sched.End() + 500*time.Millisecond)
	if err := c.Settle(settleBy); err != nil {
		c.Close()
		t.Fatal(err)
	}
	// Settle returns the moment the final view installs; run a few more
	// workload periods so that view demonstrably carries traffic.
	c.Run(500 * time.Millisecond)
	c.Close()
	return c
}

// assertUpgradeCommitted checks the FIFO→TOTAL payoff on a finished
// run: every incarnation runs TOTAL in its final view and delivered
// casts there, and the whole history set is invariant-clean (which
// includes the per-view total order check — non-vacuous exactly
// because deliveries in a TOTAL view exist).
func assertUpgradeCommitted(t *testing.T, c *chaos.Cluster) {
	t.Helper()
	for _, e := range c.Check() {
		t.Errorf("invariant: %v", e)
	}
	for _, h := range c.Histories {
		last := h.Last()
		if last == nil {
			t.Errorf("s%d.%d: no view at all", h.Slot, h.Inc)
			continue
		}
		if seg := h.Segments()[last.ID]; seg != "TOTAL" {
			t.Errorf("s%d.%d: runs %q in the final view %v, want TOTAL", h.Slot, h.Inc, seg, last.ID)
			continue
		}
		inFinal := 0
		for _, d := range h.Deliveries {
			if !d.Lost && d.View == last.ID {
				inFinal++
			}
		}
		if inFinal == 0 {
			t.Errorf("s%d.%d: no casts delivered in the final view — the TOTAL segment never produced traffic", h.Slot, h.Inc)
		}
	}
}

// assertAbortedCleanly checks the rollback story: someone recorded an
// abort, nobody ever committed, the rollback lost and duplicated
// nothing, and the old (empty) segment kept delivering in the final
// view after re-convergence.
//
// "Zero lost/duplicated casts" has two halves. Across members it is
// the virtual-synchrony contract — view agreement, no duplicates,
// FIFO with every gap reported — which c.Check() proves over the whole
// run (the partition itself may drop cross-cut frames, but only as
// *reported* gaps). The sharper, switch-specific half is self
// delivery: a member's own casts never touch the network, and they are
// exactly what the SWITCH gate parks during the aborted attempt, so
// each member must deliver its own payload sequence 1..N contiguously
// — a hole means the abort's gate dump swallowed a cast, a repeat
// means it dumped one twice.
func assertAbortedCleanly(t *testing.T, c *chaos.Cluster) {
	t.Helper()
	for _, e := range c.Check() {
		t.Errorf("invariant: %v", e)
	}
	aborts := 0
	for _, h := range c.Histories {
		for _, s := range h.Switches {
			if s.Committed {
				t.Errorf("s%d.%d: committed %q in view %v — the partition should have aborted the switch",
					h.Slot, h.Inc, s.Detail, s.View)
			} else {
				aborts++
			}
		}
		self := fmt.Sprintf("s%d.%d-", h.Slot, h.Inc)
		want := 1
		for _, d := range h.Deliveries {
			if d.Lost || !strings.HasPrefix(d.Payload, self) {
				continue
			}
			var seq int
			if _, err := fmt.Sscanf(d.Payload[len(self):], "%d", &seq); err != nil {
				t.Fatalf("s%d.%d: unparseable own payload %q", h.Slot, h.Inc, d.Payload)
			}
			if seq != want {
				t.Errorf("s%d.%d: own cast stream delivered seq %d after %d — gate dump lost or duplicated casts",
					h.Slot, h.Inc, seq, want-1)
			}
			want = seq + 1
		}
		if want == 1 {
			t.Errorf("s%d.%d: delivered none of its own casts", h.Slot, h.Inc)
		}
	}
	if aborts == 0 {
		t.Error("no incarnation recorded an aborted switch")
	}
	// Old stack liveness: the final (post-heal) view must carry casts
	// at every member — rollback is only a rollback if traffic resumed
	// on the original segment.
	for _, h := range c.Histories {
		last := h.Last()
		if last == nil {
			t.Errorf("s%d.%d: no view at all", h.Slot, h.Inc)
			continue
		}
		if seg := h.Segments()[last.ID]; seg != "" {
			t.Errorf("s%d.%d: runs %q in the final view %v, want the empty segment", h.Slot, h.Inc, seg, last.ID)
		}
		inFinal := 0
		for _, d := range h.Deliveries {
			if !d.Lost && d.View == last.ID {
				inFinal++
			}
		}
		if inFinal == 0 {
			t.Errorf("s%d.%d: no casts delivered in the final view %v — old stack not live after rollback",
				h.Slot, h.Inc, last.ID)
		}
	}
}

// TestSwitchUpgradeFIFOTotal: the clean upgrade on the simulated
// fabric, run twice — identical digests pin bit-exact replay.
func TestSwitchUpgradeFIFOTotal(t *testing.T) {
	run := func() (*chaos.Cluster, string) {
		c := runSwitchScenario(t, 11, nil, upgradeSchedule(), 6*time.Second, 10*time.Second)
		return c, c.Digest()
	}
	c1, d1 := run()
	assertUpgradeCommitted(t, c1)
	_, d2 := run()
	if d1 != d2 {
		t.Fatalf("upgrade run diverged across replays:\n--- run 1\n%s\n--- run 2\n%s", d1, d2)
	}
}

// TestSwitchAbortMidQuiescePartition: the doomed upgrade on the
// simulated fabric, also replay-stable.
func TestSwitchAbortMidQuiescePartition(t *testing.T) {
	run := func() (*chaos.Cluster, string) {
		c := runSwitchScenario(t, 17, nil, abortSchedule(), 6*time.Second, 10*time.Second)
		return c, c.Digest()
	}
	c1, d1 := run()
	assertAbortedCleanly(t, c1)
	_, d2 := run()
	if d1 != d2 {
		t.Fatalf("abort run diverged across replays:\n--- run 1\n%s\n--- run 2\n%s", d1, d2)
	}
}

// TestSwitchUpgradeFIFOTotalUDP runs the same pinned upgrade over real
// UDP sockets at wall-clock speed.
func TestSwitchUpgradeFIFOTotalUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP fabric runs at wall-clock speed")
	}
	fab := chaosnet.New(chaosnet.Config{Seed: 11, DefaultLink: switchCalmLink})
	c := runSwitchScenario(t, 11, fab, upgradeSchedule(), 15*time.Second, 20*time.Second)
	assertUpgradeCommitted(t, c)
}

// TestSwitchAbortMidQuiescePartitionUDP runs the doomed upgrade over
// real UDP sockets: the partition and the abort edge must behave
// identically on kernel timing.
func TestSwitchAbortMidQuiescePartitionUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP fabric runs at wall-clock speed")
	}
	fab := chaosnet.New(chaosnet.Config{Seed: 17, DefaultLink: switchCalmLink})
	c := runSwitchScenario(t, 17, fab, abortSchedule(), 15*time.Second, 20*time.Second)
	assertAbortedCleanly(t, c)
}

// TestSwitchStormUDP runs a switch storm under the continuous cast
// workload on a chaosnet cluster — real goroutines and real sockets,
// the configuration in which `go test -race` can catch a data race
// between a segment swap and the casts crossing it. The
// virtual-synchrony invariants must hold and at least one switch must
// commit, so a segment demonstrably moved while casts were in flight.
func TestSwitchStormUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("switch storm runs the UDP fabric at wall-clock speed")
	}
	link := netsim.Link{Delay: time.Millisecond, Jitter: 2 * time.Millisecond, LossRate: 0.02}
	c := chaos.NewCluster(chaos.Config{
		Seed:    641,
		Members: 3,
		Link:    link,
		Fabric:  chaosnet.New(chaosnet.Config{Seed: 641, DefaultLink: link}),
		Stack:   chaos.SwitchStack,
	})
	defer c.Close()
	if err := c.Form(15 * time.Second); err != nil {
		t.Fatalf("formation: %v", err)
	}
	sched := chaos.SwitchStorm(200*time.Millisecond, 400*time.Millisecond, 6, 3,
		[]string{"TOTAL", "", "COMPRESS:TOTAL"})
	c.Apply(sched)
	c.Run(sched.End() + 500*time.Millisecond)
	if err := c.Settle(20 * time.Second); err != nil {
		t.Fatalf("settle: %v", err)
	}
	c.Close() // quiesce before reading histories
	if errs := c.Check(); len(errs) != 0 {
		for _, e := range errs {
			t.Error(e)
		}
	}
	committed := 0
	for _, h := range c.Histories {
		for _, s := range h.Switches {
			if s.Committed {
				committed++
			}
		}
	}
	if committed == 0 {
		t.Fatal("switch storm never committed a reconfiguration — the race window was never opened")
	}
}

// TestSwitchStormSoak sweeps the switch-storm generator: random
// upgrades, downgrades, and reshapes interleaved with the polite fault
// vocabulary. Every seed must converge and stay invariant-clean.
func TestSwitchStormSoak(t *testing.T) {
	seeds := 15
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(soakName(seed), func(t *testing.T) {
			c, err := chaos.RunSeed(seed, chaos.GenConfig{Switch: true}, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, e := range c.Check() {
				t.Errorf("seed %d: %v", seed, e)
			}
		})
	}
}

// TestSwitchStormSoakHarsh crosses switch storms with the hostile
// schedule repertoire over the primary-partition SWITCH stack:
// reconfigurations racing multi-way partitions, anchor crashes, and
// composite degradation squeezes.
func TestSwitchStormSoakHarsh(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(soakName(seed), func(t *testing.T) {
			c, err := chaos.RunSeed(seed, chaos.GenConfig{Switch: true, Harsh: true}, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, e := range c.Check() {
				t.Errorf("seed %d: %v", seed, e)
			}
		})
	}
}
