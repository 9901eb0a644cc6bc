// Command horus-chaos runs the chaos soak from the command line: for
// each seed it forms a cluster, generates a seeded fault schedule
// (loss ramps, asymmetric links, flapping, crash/recover, rolling
// partitions, bandwidth and egress squeezes, reorder bursts — plus
// multi-way splits, anchor crashes, and majority loss with -harsh,
// and run-time stack reconfiguration storms with -switch),
// drives a continuous cast workload through it, and
// then checks every virtual-synchrony invariant over everything every
// incarnation observed.
//
// With the default simulated transport the whole run is a pure
// function of the seed, so a failure printed here is replayed exactly
// with
//
//	horus-chaos -seed N -v
//
// With -transport udp the same schedule executes over real loopback
// UDP sockets through the chaosnet lossy proxy at wall-clock speed;
// those runs validate the stack against kernel timing and are not
// replayable, so failures come with transport counters attached
// instead.
//
// The exit status is nonzero if any seed fails to re-converge or
// violates an invariant, which makes the command usable as a CI soak.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"horus/internal/chaos"
	"horus/internal/chaosnet"
	"horus/internal/netsim"
)

func main() {
	var (
		seed      = flag.Int64("seed", 0, "run exactly this seed (0 = run seeds 1..-seeds)")
		seeds     = flag.Int64("seeds", 20, "number of seeds to sweep when -seed is not given")
		members   = flag.Int("members", 4, "cluster size")
		horizon   = flag.Duration("duration", 5*time.Second, "fault-schedule horizon (fabric time)")
		incidents = flag.Int("incidents", 7, "incidents per fault schedule")
		transport = flag.String("transport", "sim", "transport substrate: sim (deterministic) or udp (real sockets)")
		harsh     = flag.Bool("harsh", false, "hostile schedules: multi-way partitions, anchor crashes, majority loss; runs the primary-partition stack")
		swStorm   = flag.Bool("switch", false, "switch storms: run the SWITCH reconfiguration stack and add run-time stack switches to the schedule")
		degrade   = flag.Bool("degrade", false, "run the pinned graceful-degradation pair (ADAPT arm vs control arm) instead of the membership soak")
		verbose   = flag.Bool("v", false, "print the fault schedule and per-seed detail")
	)
	flag.Parse()

	// The library treats zero config values as "use the default", so
	// degenerate values reaching it would panic deep in the generator;
	// reject them here with a usable message instead.
	switch {
	case *members < 2:
		fatalf("-members must be at least 2 (got %d)", *members)
	case *horizon <= 0:
		fatalf("-duration must be positive (got %v)", *horizon)
	case *incidents < 1:
		fatalf("-incidents must be at least 1 (got %d)", *incidents)
	case *seed == 0 && *seeds < 1:
		fatalf("-seeds must be at least 1 (got %d)", *seeds)
	case *transport != "sim" && *transport != "udp":
		fatalf("-transport must be sim or udp (got %q)", *transport)
	}

	first, last := int64(1), *seeds
	if *seed != 0 {
		first, last = *seed, *seed
	}

	failed := 0
	for s := first; s <= last; s++ {
		ok := false
		if *degrade {
			ok = runDegrade(s, *transport)
		} else {
			ok = runSeed(s, *members, *horizon, *incidents, *transport, *harsh, *swStorm, *verbose)
		}
		if !ok {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "horus-chaos: %d/%d seeds failed\n", failed, last-first+1)
		os.Exit(1)
	}
	fmt.Printf("horus-chaos: %d seeds passed\n", last-first+1)
}

// runDegrade executes the pinned graceful-degradation scenario — the
// canonical moderate/heavy load pair under the held egress squeeze and
// transient partition — on both arms. The ADAPT arm must degrade
// gracefully (no goodput inversion, bounded latency, shed/throttle
// counters proving the loop engaged); the control arm must still show
// the collapse inversion on the deterministic sim transport, and is
// reported but not judged on UDP, where the exact collapse point is
// kernel-timing dependent. Each seed line carries the arm's shed and
// throttle counters.
func runDegrade(seed int64, transport string) bool {
	bound := 4 * time.Second
	if transport == "udp" {
		bound = 6 * time.Second
	}
	newFabric := func() chaos.Fabric {
		if transport == "udp" {
			return chaosnet.New(chaosnet.Config{
				Seed:        seed,
				DefaultLink: netsim.Link{Delay: time.Millisecond},
			})
		}
		return nil // RunDegradation builds the sim fabric from Seed
	}

	run := func(arm string, adaptive bool) bool {
		start := time.Now()
		modCfg, hvyCfg := chaos.DegradePair(adaptive, seed)
		modCfg.Fabric = newFabric()
		mod := chaos.RunDegradation(modCfg)
		hvyCfg.Fabric = newFabric()
		hvy := chaos.RunDegradation(hvyCfg)

		ok := true
		if adaptive {
			for _, err := range chaos.CheckGracefulDegradation(mod, hvy, bound) {
				fmt.Fprintf(os.Stderr, "seed %d %s: %v\n", seed, arm, err)
				ok = false
			}
		} else if transport == "sim" && !chaos.GoodputInverted(mod, hvy) {
			fmt.Fprintf(os.Stderr,
				"seed %d %s: control arm did not collapse (moderate %d vs heavy %d delivered): the squeeze proves nothing\n",
				seed, arm, mod.Delivered, hvy.Delivered)
			ok = false
		}
		status := "ok"
		if !ok {
			status = "FAIL"
		}
		fmt.Printf("seed %-4d %-7s %s  moderate[%v] heavy[%v] inverted=%v  (%v wall)\n",
			seed, arm, status, mod, hvy, chaos.GoodputInverted(mod, hvy),
			time.Since(start).Round(time.Millisecond))
		return ok
	}

	adaptOK := run("adapt", true)
	controlOK := run("control", false)
	return adaptOK && controlOK
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "horus-chaos: "+format+"\n", args...)
	os.Exit(2)
}

func runSeed(seed int64, members int, horizon time.Duration, incidents int, transport string, harsh, swStorm, verbose bool) bool {
	cfg := chaos.GenConfig{Members: members, Horizon: horizon, Incidents: incidents, Harsh: harsh, Switch: swStorm}
	var (
		udpFab    *chaosnet.Fabric
		newFabric func(int64, netsim.Link) chaos.Fabric
	)
	if transport == "udp" {
		newFabric = func(seed int64, link netsim.Link) chaos.Fabric {
			udpFab = chaosnet.New(chaosnet.Config{Seed: seed, DefaultLink: link})
			return udpFab
		}
	}
	if verbose {
		// Same (seed, config) as RunSeed uses, so this prints exactly the
		// schedule the run will execute.
		fmt.Printf("== seed %d: schedule ==\n%s", seed, chaos.Generate(seed, cfg))
	}
	start := time.Now()
	c, err := chaos.RunSeed(seed, cfg, newFabric)
	ok := true
	if err != nil {
		fmt.Fprintf(os.Stderr, "seed %d: %v\n", seed, err)
		ok = false
	}
	if c != nil {
		if errs := c.Check(); len(errs) != 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "seed %d: invariant: %v\n", seed, e)
			}
			ok = false
		}
		if verbose {
			fmt.Printf("== seed %d: history digest ==\n%s", seed, c.Digest())
		}
	}
	status := "ok"
	if !ok {
		status = "FAIL"
	}
	fmt.Printf("seed %-4d %s  (%v wall, %d incarnations)%s%s\n",
		seed, status, time.Since(start).Round(time.Millisecond), incarnations(c),
		switchStats(c, swStorm), netStats(udpFab))
	return ok
}

// switchStats renders the per-seed SWITCH outcome counters for -switch
// runs: how many reconfigurations committed (including gossip-driven
// sync commits on members that missed the round) and how many aborted
// back to the old stack.
func switchStats(c *chaos.Cluster, swStorm bool) string {
	if c == nil || !swStorm {
		return ""
	}
	committed, aborted := 0, 0
	for _, h := range c.Histories {
		for _, s := range h.Switches {
			if s.Committed {
				committed++
			} else {
				aborted++
			}
		}
	}
	return fmt.Sprintf("  [switch commit=%d abort=%d]", committed, aborted)
}

// netStats renders the per-seed transport counters for UDP runs: the
// proxy's fault ledger plus the udpnet error counters. The fabric is
// built per seed, so every number is already a per-seed delta — a
// real-socket failure arrives with its transport evidence attached.
func netStats(f *chaosnet.Fabric) string {
	if f == nil {
		return ""
	}
	p := f.Stats()
	t := f.TransportStats()
	return fmt.Sprintf("  [udp fwd=%d drop=%d block=%d dup=%d garble=%d reorder=%d throttle=%d congest=%d collapse=%d | sendErr=%d malformed=%d oversized=%d truncated=%d]",
		p.Delivered, p.Lost, p.Blocked, p.Duplicated, p.Garbled, p.Reordered, p.Throttled,
		p.Congested, p.CollapseDropped,
		t.SendErrors, t.Malformed, t.Oversized, t.Truncated)
}

func incarnations(c *chaos.Cluster) int {
	if c == nil {
		return 0
	}
	return len(c.Histories)
}
