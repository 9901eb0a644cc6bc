package chaos

import (
	"time"

	"horus/internal/netsim"
)

// SoakConfig parameterizes one seeded soak run. The zero value gives
// the canonical recipe used by the integration soak and cmd/horus-chaos
// — change a field only when exploring; the defaults are what the
// 20-seed regression suite pins down.
type SoakConfig struct {
	Members   int           // cluster size; default 4
	Horizon   time.Duration // fault-schedule horizon; default 5s
	Incidents int           // incidents generated per schedule; default 7

	// Harsh turns on the hostile schedule generator (multi-way
	// partitions, anchor crashes, majority loss) and runs the stack
	// with primary-partition arithmetic, so minority components defer
	// casts instead of making independent progress.
	Harsh bool

	// Switch runs the cluster on SwitchStack (a SWITCH reconfiguration
	// layer over the default stack) and adds the switch incident class
	// to the generated schedule, so stacks get upgraded, downgraded,
	// and reshaped while everything else is on fire.
	Switch bool

	// NewFabric, when set, supplies the transport substrate for each
	// seed (e.g. a chaosnet UDP fabric) over the soak's healthy link.
	// Nil means the deterministic simulated fabric. The cluster owns
	// the fabric and closes it.
	NewFabric func(seed int64, link netsim.Link) Fabric
}

// soakLink is the healthy link of every soak: 1 ms delay, 2 ms
// jitter, 2 % loss.
var soakLink = netsim.Link{Delay: time.Millisecond, Jitter: 2 * time.Millisecond, LossRate: 0.02}

func (c *SoakConfig) fill() {
	if c.Members == 0 {
		c.Members = 4
	}
	if c.Horizon == 0 {
		c.Horizon = 5 * time.Second
	}
	if c.Incidents == 0 {
		c.Incidents = 7
	}
}

// deadlines returns how long the cluster has to form and, after the
// schedule, to settle. On the simulated fabric these are virtual-time
// bounds (6 s to form, 10 s to settle): a run takes as long as it
// needs, and the clock only advances when the event queue does. A
// supplied fabric runs on the wall clock, where the same numbers race
// the kernel scheduler, -race instrumentation, CI neighbours and the
// reorder backstop timers, so it gets real slack: 20 s to form and 30
// s to settle, 45 s after a harsh schedule, whose multi-way merges and
// re-anchoring leave the most wreckage.
func (c *SoakConfig) deadlines() (formBy, settleBy time.Duration) {
	if c.NewFabric == nil {
		return 6 * time.Second, 10 * time.Second
	}
	if c.Harsh {
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
func RunSeed(seed int64, cfg SoakConfig) (*Cluster, error) {
	cfg.fill()
	formBy, settleBy := cfg.deadlines()
	ccfg := Config{Seed: seed, Members: cfg.Members, Link: soakLink}
	if cfg.NewFabric != nil {
		ccfg.Fabric = cfg.NewFabric(seed, soakLink)
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
	sched := Generate(seed, GenConfig{
		Members: cfg.Members, Horizon: cfg.Horizon, Incidents: cfg.Incidents,
		Harsh: cfg.Harsh, Switch: cfg.Switch,
	})
	c.Apply(sched)
	c.Run(sched.End() + 500*time.Millisecond)
	if err := c.Settle(settleBy); err != nil {
		c.Close()
		return c, err
	}
	c.Close()
	return c, nil
}
