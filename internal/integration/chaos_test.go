package integration

import (
	"testing"
	"time"

	"horus/internal/chaos"
	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/hbeat"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/netsim"
)

// hbStack is the heartbeat-detected membership stack: NAK's own
// silence suspicion is off (suspectAfter 0), so the only failure
// detector in the stack is HBEAT.
func hbStack() core.StackSpec {
	return core.StackSpec{
		mbrship.NewWith(
			mbrship.WithGossipPeriod(40*time.Millisecond),
			mbrship.WithFlushTimeout(400*time.Millisecond),
		),
		hbeat.NewWith(
			hbeat.WithPeriod(30*time.Millisecond),
			hbeat.WithMinTimeout(90*time.Millisecond),
			hbeat.WithMaxTimeout(250*time.Millisecond),
		),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithNakResend(15*time.Millisecond),
			nak.WithSuspectAfter(0),
		),
		com.New,
	}
}

// TestHeartbeatDetectsCrashWithinBound: with HBEAT as the only
// detector, a crashed member is suspected and flushed out within a
// bounded virtual-time interval — here maxTimeout (250ms) + one sweep
// period + flush round-trips, asserted at 1.5s with margin.
func TestHeartbeatDetectsCrashWithinBound(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 41, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps, groups, cols := joinGroup(t, net, 3, hbStack)
	if err := net.Form(groups, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	// Crash c. Nothing reports a PROBLEM except HBEAT's own silence
	// detection; the survivors must install {a, b} within the bound.
	crashAt := net.Now()
	net.Crash(eps[2].ID())
	const bound = 1500 * time.Millisecond
	net.RunFor(bound)
	for _, c := range cols[:2] {
		v := c.lastView()
		if v == nil || v.Size() != 2 || v.Contains(eps[2].ID()) {
			t.Fatalf("%s: view %v at %v after crash, want {a,b} within %v",
				c.name, v, net.Now()-crashAt, bound)
		}
	}
}

// TestChaosSoak runs randomized fault schedules across many seeds:
// loss ramps, asymmetric loss, flapping links, crash/recover cycles,
// and rolling partitions, with a continuous cast workload. After the
// schedule's safety tail the cluster must re-converge to one full
// view, and every virtual-synchrony invariant must hold over the whole
// run. A failure names the seed; rerun with that seed for an exact
// replay (go test -run TestChaosSoak, or cmd/horus-chaos -seed N -v).
func TestChaosSoak(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(soakName(seed), func(t *testing.T) {
			hists, err := runChaosSeed(seed)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if errs := chaos.CheckAll(hists); len(errs) != 0 {
				for _, e := range errs {
					t.Errorf("seed %d: %v", seed, e)
				}
			}
		})
	}
}

func soakName(seed int64) string {
	return "seed" + string(rune('0'+seed/10)) + string(rune('0'+seed%10))
}

// runChaosSeed is the one deterministic recipe shared by the soak, the
// replay test, and cmd/horus-chaos — chaos.RunSeed with its defaults.
func runChaosSeed(seed int64) ([]*chaos.History, error) {
	c, err := chaos.RunSeed(seed, chaos.GenConfig{}, nil)
	if c == nil {
		return nil, err
	}
	return c.Histories, err
}

// TestChaosDeterministicReplay: the whole pipeline — simulation,
// schedule generation, workload, membership — is a pure function of
// the seed, so a failing seed's replay sees the identical execution.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() string {
		c := chaos.NewCluster(chaos.Config{
			Seed: 3, Members: 4,
			Link: netsim.Link{Delay: time.Millisecond, Jitter: 2 * time.Millisecond, LossRate: 0.02},
		})
		if err := c.Form(6 * time.Second); err != nil {
			t.Fatal(err)
		}
		sched := chaos.Generate(3, chaos.GenConfig{Members: 4, Horizon: 3 * time.Second, Incidents: 5})
		c.Apply(sched)
		c.Run(sched.End() + 2*time.Second)
		return c.Digest()
	}
	d1, d2 := run(), run()
	if d1 != d2 {
		t.Fatalf("same seed diverged:\n--- run 1\n%s\n--- run 2\n%s", d1, d2)
	}
}

// TestChaosHarshSoak runs the hostile schedule repertoire — multi-way
// partitions, anchor crashes, majority loss — over the
// primary-partition stack. Short mode trims the sweep; CI runs the
// full 20 under -race.
func TestChaosHarshSoak(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(soakName(seed), func(t *testing.T) {
			c, err := chaos.RunSeed(seed, chaos.GenConfig{Harsh: true}, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, e := range c.Check() {
				t.Errorf("seed %d: %v", seed, e)
			}
		})
	}
}

// TestChaosHarshReplayStable re-runs harsh seed 9 — the seed that once
// wedged a member on perpetual "not coordinator" merge denials after
// an anchor crash — and requires both that it now converges cleanly
// and that two runs of it are byte-identical, so any future
// re-appearance of the bug replays exactly.
func TestChaosHarshReplayStable(t *testing.T) {
	run := func() string {
		c, err := chaos.RunSeed(9, chaos.GenConfig{Harsh: true}, nil)
		if err != nil {
			t.Fatalf("harsh seed 9: %v", err)
		}
		for _, e := range c.Check() {
			t.Errorf("harsh seed 9: %v", e)
		}
		return c.Digest()
	}
	d1, d2 := run(), run()
	if d1 != d2 {
		t.Fatalf("harsh seed 9 diverged across runs:\n--- run 1\n%s\n--- run 2\n%s", d1, d2)
	}
}

// TestChaosNoDeliveryPastAPlaceHolder pins the polite seeds that showed
// a FIFO gap within a view behind a NAK place holder once NAK's status
// shrank to one count per peer: a member the coordinator had just
// excluded, still in the old view, asked the coordinator for casts it
// had trimmed, was answered with a place holder and delivered the casts
// after the hole. Both fail without MBRSHIP's refusal to deliver past a
// gap. (Harsh seed 14, which failed that way with the status change
// alone, is in TestChaosHarshSoak.)
func TestChaosNoDeliveryPastAPlaceHolder(t *testing.T) {
	for _, seed := range []int64{209, 640} {
		c, err := chaos.RunSeed(seed, chaos.GenConfig{}, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, e := range c.Check() {
			t.Errorf("seed %d: %v", seed, e)
		}
	}
}

// seedsHold runs each seed of the canonical chaos recipe under cfg and
// requires it to form, settle and keep every invariant.
func seedsHold(t *testing.T, cfg chaos.GenConfig, seeds ...int64) {
	t.Helper()
	for _, seed := range seeds {
		c, err := chaos.RunSeed(seed, cfg, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, e := range c.Check() {
			t.Errorf("seed %d: %v", seed, e)
		}
	}
}

// The four tests below pin the seeds that failed once NAK waited out a
// stream's reorder window before asking for a gap. None was a NAK
// defect; the new timing moved a lost or late control message onto an
// edge of MBRSHIP or TOTAL. Each fails without the fix it names.

// TestChaosTokenFromOutsideTheViewIsDropped: a member excluded from the
// view, not yet knowing it, received the old view's token, stamped casts
// that nobody delivered and passed the token to a member of the new
// view, which then stamped beside the new view's own holder — one TOTAL
// stamp on two casts (FIFO gaps and view disagreement). TOTAL drops a
// token granted in a view other than its own, which covers a sender
// outside its view.
func TestChaosTokenFromOutsideTheViewIsDropped(t *testing.T) {
	seedsHold(t, chaos.GenConfig{Switch: true}, 51, 113)
}

// The three tests below pin the seeds of one class: a TOTAL token that a
// member of the current view granted in an earlier one, delayed on the
// per-pair stream across the view change (seed 109 at 4.3 s: s1 grants
// it in v11, s2 takes it in v19 at 6.0 s), was taken beside the current
// view's own holder — one stamp on two casts, FIFO gaps and view
// disagreement. A token now carries the view it was granted in, and one
// from any other view is dropped. Seeds 222 and 638 fail that way once
// a MBRSHIP cast is no longer sent back to its sender; seed 109, eight
// incidents, fails that way without that change.

// TestChaosTokenFromAnEarlierViewSwitch222 is `-switch -seed 222`.
func TestChaosTokenFromAnEarlierViewSwitch222(t *testing.T) {
	seedsHold(t, chaos.GenConfig{Switch: true}, 222)
}

// TestChaosTokenFromAnEarlierViewHarshSwitch638 is `-harsh -switch -seed 638`.
func TestChaosTokenFromAnEarlierViewHarshSwitch638(t *testing.T) {
	seedsHold(t, chaos.GenConfig{Harsh: true, Switch: true}, 638)
}

// TestChaosTokenFromAnEarlierViewHarshSwitch109 is `-harsh -switch
// -incidents 8 -seed 109`.
func TestChaosTokenFromAnEarlierViewHarshSwitch109(t *testing.T) {
	seedsHold(t, chaos.GenConfig{Harsh: true, Switch: true, Incidents: 8}, 109)
}

// TestChaosFlushBeforeTheViewsConfigHarshSwitch811 is `-harsh -switch
// -seed 811`. At s1 the flush that ends v7 began before v7's CONFIG was
// delivered there, and SWITCH passed the FLUSH to its TOTAL segment at
// once but the held VIEW only with the CONFIG; TOTAL took the VIEW for
// the end of the flush, stamped ord 1 on the token that came next, and
// the flush released that cast into v8, where s0 had stamped its own
// ord 1: two casts on one stamp, and the members disagreed on v8's
// deliveries. SWITCH now passes a FLUSH that comes while its view is
// held after that view. The seed failed this way once NAK asked for a
// claimed unicast one reorder window after its first claim.
func TestChaosFlushBeforeTheViewsConfigHarshSwitch811(t *testing.T) {
	seedsHold(t, chaos.GenConfig{Harsh: true, Switch: true}, 811)
}

// TestChaosStaleMergeReadyIsDenied: a requester's merge_ready was lost,
// and no status round reaches a peer outside the view to expose the
// tail; the coordinator's merge flush timed out, and the late or resent
// merge_ready was ignored while the requester sat out its retry budget
// and missed the formation deadline. The coordinator now denies it, and
// the requester asks again.
func TestChaosStaleMergeReadyIsDenied(t *testing.T) {
	seedsHold(t, chaos.GenConfig{Switch: true}, 59)
	seedsHold(t, chaos.GenConfig{Harsh: true, Switch: true}, 83)
}

// TestChaosFlushCoordinatorSuspectsSilentSurvivors: a member that never
// received the view its coordinator had installed dropped the
// coordinator's next FLUSH as stale, and the coordinator waited for its
// consent for good (no re-convergence). The coordinator's flush timeout
// now suspects survivors that have not consented. Harsh-switch seed 675
// failed the same way at the parent of the reorder window.
func TestChaosFlushCoordinatorSuspectsSilentSurvivors(t *testing.T) {
	seedsHold(t, chaos.GenConfig{}, 780)
	seedsHold(t, chaos.GenConfig{Harsh: true, Switch: true}, 675)
}

// TestChaosMergeFlushIsNotRestartedForTheSameFailures: a coordinator
// merging in a requester that had crashed restarted its flush round on
// every repeated suspicion of the same members, each restart re-arming
// the timeout that would have ended the merge (no re-convergence). A
// round under way for the same failure set is kept, merging or not.
func TestChaosMergeFlushIsNotRestartedForTheSameFailures(t *testing.T) {
	seedsHold(t, chaos.GenConfig{Harsh: true, Switch: true}, 124)
}

// TestChaosSeed5Regression pins the exact recipe that exposed the
// view-agreement violation fixed in the merge-pool rework: seed 5, 6
// members, 80 incidents over a 4s horizon. It must settle and keep
// every virtual-synchrony invariant.
func TestChaosSeed5Regression(t *testing.T) {
	c, err := chaos.RunSeed(5, chaos.GenConfig{
		Members: 6, Horizon: 4 * time.Second, Incidents: 80,
	}, nil)
	if err != nil {
		t.Fatalf("seed 5 recipe: %v", err)
	}
	for _, e := range c.Check() {
		t.Errorf("seed 5 recipe: %v", e)
	}
}
