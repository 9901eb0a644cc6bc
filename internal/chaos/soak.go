package chaos

import (
	"time"

	"horus/internal/netsim"
)

// soakLink is the healthy link of every soak: 1 ms delay, 2 ms
// jitter, 2 % loss.
var soakLink = netsim.Link{Delay: time.Millisecond, Jitter: 2 * time.Millisecond, LossRate: 0.02}

// deadlines returns how long the cluster has to form and, after the
// schedule, to settle. On the simulated fabric these are virtual-time
// bounds (6 s to form, 10 s to settle): a run takes as long as it
// needs, and the clock only advances when the event queue does. A
// supplied fabric runs on the wall clock, where the same numbers race
// the kernel scheduler, -race instrumentation, CI neighbours and the
// reorder backstop timers, so it gets real slack: 20 s to form and 30
// s to settle, 45 s after a harsh schedule, whose multi-way merges and
// re-anchoring leave the most wreckage.
func deadlines(cfg GenConfig, supplied bool) (formBy, settleBy time.Duration) {
	if !supplied {
		return 6 * time.Second, 10 * time.Second
	}
	if cfg.Harsh {
		return 20 * time.Second, 45 * time.Second
	}
	return 20 * time.Second, 30 * time.Second
}

// RunSeed executes the canonical chaos recipe for one seed: boot and
// form a cluster, generate and apply a seeded fault schedule under a
// continuous cast workload, run past the schedule's end, then require
// re-convergence to one full view. The returned cluster is non-nil
// whenever the run got past formation, so callers can inspect
// Histories, Check, and Digest even when Settle failed. Invariant
// checking is left to the caller (Cluster.Check / CheckAll): a run can
// settle and still have violated virtual synchrony along the way.
//
// cfg is the schedule's, and also picks the stack: Harsh runs the
// primary-partition arithmetic, so minority components defer casts
// instead of making independent progress, and Switch runs SwitchStack.
// A zero Members, Horizon or Incidents takes the canonical recipe's
// value (4 members, a 5 s horizon, 7 incidents), the one the 20-seed
// regression suite pins down. newFabric, when set, supplies the
// transport substrate for the seed (e.g. a chaosnet UDP fabric) over
// the soak's healthy link; nil means the deterministic simulated
// fabric. The cluster owns the fabric and closes it.
func RunSeed(seed int64, cfg GenConfig, newFabric func(seed int64, link netsim.Link) Fabric) (*Cluster, error) {
	if cfg.Members == 0 {
		cfg.Members = 4
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 5 * time.Second
	}
	if cfg.Incidents == 0 {
		cfg.Incidents = 7
	}
	formBy, settleBy := deadlines(cfg, newFabric != nil)
	ccfg := Config{Seed: seed, Members: cfg.Members, Link: soakLink}
	if newFabric != nil {
		ccfg.Fabric = newFabric(seed, soakLink)
	}
	if cfg.Harsh {
		ccfg.Stack = PrimaryStack(cfg.Members)
	}
	if cfg.Switch {
		ccfg.Stack = SwitchStack
		if cfg.Harsh {
			ccfg.Stack = PrimarySwitchStack(cfg.Members)
		}
	}
	c := NewCluster(ccfg)
	if err := c.Form(formBy); err != nil {
		c.Close()
		return nil, err
	}
	sched := Generate(seed, cfg)
	c.Apply(sched)
	c.Run(sched.End() + 500*time.Millisecond)
	if err := c.Settle(settleBy); err != nil {
		c.Close()
		return c, err
	}
	c.Close()
	return c, nil
}
