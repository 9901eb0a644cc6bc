package integration

// Graceful-degradation conformance: the pinned chaos.Degradation
// scenario — an egress squeeze held for the whole window plus a
// transient partition that drives the failure detector's φ through its
// bands — run over the canonical moderate/heavy load pair, on both
// arms. The control arm (no ADAPT) must still exhibit the
// congestion-collapse inversion the squeeze is designed to produce:
// offering more delivers less, and what is delivered goes stale. The
// ADAPT arm must degrade gracefully instead: no inversion, bounded
// per-cast latency, and counter evidence that the detector→ADAPT loop
// (throttle on φ and backlog, shed on overload, multiplicative
// decrease on collapse drops) actually closed. The sim arm is fully
// deterministic and is additionally replayed in-process to prove it.

import (
	"testing"
	"time"

	"horus/internal/chaos"
	"horus/internal/chaosnet"
	"horus/internal/netsim"
)

// Latency bounds for everything the ADAPT arm delivers. On seed 11 the
// sim arm peaks at 3.58s moderate and 2.63s heavy (67 and 109 casts
// delivered), so the bound has 0.4s of headroom; the control arm
// inverts (110 delivered moderate, 98 heavy). At the squeeze before
// endpoints travelled as their births, the arm peaked at 3.39s and
// 3.36s, at 3.20s and 2.58s before NAK's status shrank, and at the
// squeeze fixed-width headers needed, the arm peaked at 3.74s and
// 2.70s, and at 2.71s and 2.59s while NAK asked for a gap again on every
// out-of-order arrival, because ADAPT's multiplicative decrease was then
// partly answering collapse drops that NAK's own retransmission storm
// caused. The UDP bound is looser because chaosnet runs on the real
// clock.
const (
	degradeSimLatencyBound = 4 * time.Second
	degradeUDPLatencyBound = 6 * time.Second
)

func TestGracefulDegradationSim(t *testing.T) {
	const seed = 11
	run := func(cfg chaos.DegradeConfig) chaos.DegradeResult {
		return chaos.RunDegradation(cfg)
	}

	// Control arm: same squeeze, same loads, no ADAPT layer. The
	// collapse inversion must be there — if it is not, the scenario has
	// stopped exercising anything and a pass on the ADAPT arm below
	// would be vacuous.
	ctlModCfg, ctlHvyCfg := chaos.DegradePair(false, seed)
	ctlMod, ctlHvy := run(ctlModCfg), run(ctlHvyCfg)
	if !chaos.GoodputInverted(ctlMod, ctlHvy) {
		t.Errorf("control arm did not collapse: moderate %v, heavy %v", ctlMod, ctlHvy)
	}
	if ctlHvy.MaxLatency <= degradeSimLatencyBound {
		t.Errorf("control heavy arm stayed fresh (%v <= %v): squeeze too weak to prove anything",
			ctlHvy.MaxLatency, degradeSimLatencyBound)
	}

	// ADAPT arm: the same scenario must degrade gracefully.
	adModCfg, adHvyCfg := chaos.DegradePair(true, seed)
	adMod, adHvy := run(adModCfg), run(adHvyCfg)
	for _, err := range chaos.CheckGracefulDegradation(adMod, adHvy, degradeSimLatencyBound) {
		t.Errorf("adapt arm: %v", err)
	}
	if adHvy.Shed == 0 {
		t.Errorf("adapt heavy arm never shed under a 6s overload: %v", adHvy)
	}

	// The whole pair is simulated; an identical rerun must reproduce
	// the heavy ADAPT curve bit for bit, counters included.
	if again := run(adHvyCfg); again != adHvy {
		t.Errorf("degradation run diverged across replays:\n%v\n%v", adHvy, again)
	}
}

func TestGracefulDegradationUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP degradation pair runs on the real clock (~20s)")
	}
	// Only the ADAPT invariants are asserted on UDP: the control arm's
	// exact collapse point is timing-dependent on a real transport, and
	// it is already pinned by the deterministic sim arm above.
	link := netsim.Link{Delay: time.Millisecond}
	modCfg, hvyCfg := chaos.DegradePair(true, 11)
	modCfg.Fabric = chaosnet.New(chaosnet.Config{Seed: 11, DefaultLink: link})
	mod := chaos.RunDegradation(modCfg)
	hvyCfg.Fabric = chaosnet.New(chaosnet.Config{Seed: 11, DefaultLink: link})
	hvy := chaos.RunDegradation(hvyCfg)
	for _, err := range chaos.CheckGracefulDegradation(mod, hvy, degradeUDPLatencyBound) {
		t.Errorf("adapt arm over UDP: %v", err)
	}
}
