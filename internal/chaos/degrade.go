package chaos

// Graceful-degradation harness: a pinned composite incident — an
// egress squeeze on the sender held for the whole measurement window,
// plus a transient partition isolating a bystander so the failure
// detector's φ rises and feeds the ADAPT layer — run against a static
// [ADAPT:]FC:HBEAT:NAK:COM trio. The harness measures goodput (casts
// delivered at the healthy receiver inside the window) and per-cast
// delivery latency at two offered loads, and the checker asserts the
// congestion-collapse inversion is gone: offering more must never
// deliver less, and nothing delivered may be arbitrarily stale. The
// same runner with Adapt=false is the control arm, which must still
// collapse — that contrast is what proves the ADAPT loop, not luck,
// produced the degradation curve.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"horus/internal/core"
	"horus/internal/layers/adapt"
	"horus/internal/layers/com"
	"horus/internal/layers/fc"
	"horus/internal/layers/hbeat"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
)

// DegradeConfig parameterizes one load run of the pinned degradation
// scenario. The squeeze, the window and the 1 ms link are the recipe's
// constants, which the integration tests and cmd/horus-chaos pin.
type DegradeConfig struct {
	Adapt bool          // run the ADAPT arm; false is the control arm
	Casts int           // offered casts from the sender (slot 0)
	Gap   time.Duration // inter-cast gap of the offered load
	Seed  int64         // sim-fabric seed when Fabric is nil

	// Fabric supplies the transport substrate; nil means the
	// deterministic simulated fabric built from Seed over a 1 ms link.
	// The runner owns the fabric and closes it.
	Fabric Fabric
}

// The pinned squeeze and window: the sender's egress budget (B/s) and
// queue bound (B) while squeezed, and the measurement window. Each time
// the stack's packets shrink, the budget is scaled by the ratio of the
// sender's egress bytes on the moderate load, and the queue is the
// nearest bound on a 50-byte grid at which both arms' verdicts hold on
// seed 11: 7500/750 with fixed-width header integers, 5600/600 with
// varints (×0.748, EXPERIMENTS.md "Headers the size of their values"),
// 5400/650 since NAK's status carries one count per peer (×0.960,
// "Control vectors sized to their reader"), and 5250/650 since an
// endpoint travels as its birth (×0.962, "Endpoints named by their
// birth": no queue holds both on the 5200 row).
const (
	degradeBudget = 5250
	degradeQueue  = 650
	degradeWindow = 8500 * time.Millisecond
)

// Canonical offered loads: the moderate load undershoots the squeezed
// budget (casts plus the stack's own control traffic fit inside it,
// modulo the transient the partition injects), the heavy load swamps
// it for six seconds straight so the bounded egress queue keeps
// dropping and NAK recovery keeps competing with fresh casts for the
// same bytes. Pinned so the sim arm of the degradation pair is one
// exact, replayable curve.
const (
	ModerateCasts = 130
	HeavyCasts    = 600
)

const (
	ModerateGap = 55 * time.Millisecond
	HeavyGap    = 10 * time.Millisecond
)

// DegradePair returns the canonical moderate and heavy load configs
// for one arm. Callers that want the UDP fabric set .Fabric on each
// before running (a fabric is single-use: the runner closes it).
func DegradePair(adaptive bool, seed int64) (moderate, heavy DegradeConfig) {
	moderate = DegradeConfig{Adapt: adaptive, Casts: ModerateCasts, Gap: ModerateGap, Seed: seed}
	heavy = DegradeConfig{Adapt: adaptive, Casts: HeavyCasts, Gap: HeavyGap, Seed: seed}
	return moderate, heavy
}

// DegradeResult is what one load run observed.
type DegradeResult struct {
	Offered    int           // casts the workload offered
	Delivered  int           // casts the healthy receiver delivered in the window
	MaxLatency time.Duration // worst offer-to-delivery latency among those

	// ADAPT counters from the sender's stack; zero on the control arm.
	Shed      int // casts sacrificed under overload
	Throttled int // casts that had to queue behind the pacer
	Decreases int // multiplicative backoffs the control loop took
}

func (r DegradeResult) String() string {
	return fmt.Sprintf("offered=%d delivered=%d maxlat=%v shed=%d throttled=%d decreases=%d",
		r.Offered, r.Delivered, r.MaxLatency, r.Shed, r.Throttled, r.Decreases)
}

// DegradeStack is the degradation stack: ADAPT (on the adaptive arm)
// over flow control over the φ-accrual heartbeat detector — with
// SUSPECT upcalls enabled, which is what closes the detector→ADAPT
// loop — over reliable FIFO. The FC window is wide enough that credit
// never gates the offered load: the scenario isolates egress-budget
// collapse, and FC's own wedge behaviour is pinned by its unit tests.
func DegradeStack(adaptive bool) core.StackSpec {
	spec := core.StackSpec{}
	if adaptive {
		// Burst 2 keeps the pacer's floor drain rate (minLevel x burst
		// per tick = 10 casts/s) safely inside the squeezed budget, so
		// once the loop backs off all the way, the drops actually stop
		// and additive increase can begin. A floor that still overruns
		// the budget would latch the level at minLevel forever.
		spec = append(spec, adapt.NewWith(adapt.WithBurst(2)))
	}
	return append(spec,
		fc.NewWithWindow(1024),
		hbeat.NewWith(
			hbeat.WithPeriod(200*time.Millisecond),
			hbeat.WithMinTimeout(400*time.Millisecond),
			hbeat.WithMaxTimeout(1200*time.Millisecond),
			hbeat.WithSuspectUpcalls(),
		),
		nak.NewWith(
			nak.WithStatusPeriod(200*time.Millisecond),
			nak.WithNakResend(20*time.Millisecond),
			nak.WithSuspectAfter(0),
		),
		com.New,
	)
}

// DegradationSchedule is the pinned composite incident, offsets
// relative to the start of the offered load: the sender's egress is
// squeezed from 500ms to the end of the window (the collapse pressure
// never lets up inside the measurement), and the bystander (slot 2) is
// partitioned away from 1s to 2.5s so the sender's failure detector
// climbs through its φ bands and retracts after the heal.
func DegradationSchedule() Schedule {
	s := Schedule{
		{At: 500 * time.Millisecond, Kind: KindSetHost, A: 0,
			Host: netsim.Host{EgressBudget: degradeBudget, EgressQueue: degradeQueue},
			Note: "degrade squeeze"},
		{At: degradeWindow, Kind: KindClearHost, A: 0, Note: "degrade squeeze end"},
		{At: time.Second, Kind: KindPartition, Sides: [][]int{{0, 1}, {2}},
			Note: "degrade isolate"},
		{At: 2500 * time.Millisecond, Kind: KindHeal, Note: "degrade heal"},
	}
	return s.Sorted()
}

// degradePayload is a 120-byte tagged cast body, sized like the
// congestion-collapse regression's so a handful saturates the budget.
func degradePayload(i int) string {
	head := fmt.Sprintf("d%04d|", i)
	return head + strings.Repeat("x", 120-len(head))
}

// parseDegradePayload recovers the cast index.
func parseDegradePayload(p string) (int, bool) {
	head, _, found := strings.Cut(p, "|")
	num, isCast := strings.CutPrefix(head, "d")
	if !found || !isCast {
		return 0, false
	}
	i, err := strconv.Atoi(num)
	return i, err == nil
}

// RunDegradation executes one load run of the pinned scenario: boot
// the static trio, warm the failure detector for 500ms, offer
// cfg.Casts casts at one per cfg.Gap from slot 0 while the
// DegradationSchedule squeezes and partitions, and report what the
// healthy receiver (slot 1) saw. Everything is driven by the fabric
// clock, so the sim arm is bit-deterministic per seed.
func RunDegradation(cfg DegradeConfig) DegradeResult {
	fab := cfg.Fabric
	if fab == nil {
		fab = NewSimFabric(cfg.Seed, netsim.Link{Delay: time.Millisecond})
	}
	defer fab.Close()

	res := DegradeResult{Offered: cfg.Casts}
	var mu sync.Mutex
	sendAt := make(map[int]time.Duration, cfg.Casts)

	const members = 3
	eps := make([]*core.Endpoint, members)
	groups := make([]*core.Group, members)
	for slot := 0; slot < members; slot++ {
		ep := fab.NewEndpoint(fmt.Sprintf("d%d", slot))
		h := func(*core.Event) {}
		if slot == 1 {
			h = func(ev *core.Event) {
				if ev.Type != core.UCast {
					return
				}
				i, ok := parseDegradePayload(string(ev.Msg.Body()))
				if !ok {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				at, offered := sendAt[i]
				if !offered {
					return
				}
				res.Delivered++
				if lat := fab.Now() - at; lat > res.MaxLatency {
					res.MaxLatency = lat
				}
			}
		}
		g, err := ep.Join("degrade", DegradeStack(cfg.Adapt), h)
		if err != nil {
			panic(fmt.Sprintf("chaos: degrade boot d%d: %v", slot, err))
		}
		eps[slot], groups[slot] = ep, g
	}
	core.InstallView(groups...)

	load := fab.Now() + time.Second // detector warm-up
	id := func(slot int) core.EndpointID { return eps[slot].ID() }
	for _, a := range DegradationSchedule() {
		a := a
		fab.At(load+a.At, func() { applyFault(fab, id, a) })
	}
	sender, sg := eps[0], groups[0]
	for i := 0; i < cfg.Casts; i++ {
		i := i
		fab.At(load+time.Duration(i)*cfg.Gap, func() {
			sender.Do(func() {
				mu.Lock()
				sendAt[i] = fab.Now()
				mu.Unlock()
				sg.Cast(message.New([]byte(degradePayload(i))))
			})
		})
	}
	fab.RunFor(load - fab.Now() + degradeWindow)

	if cfg.Adapt {
		stats := make(chan adapt.Stats, 1)
		sender.Do(func() { stats <- sg.Focus("ADAPT").(*adapt.Adapt).Stats() })
		s := <-stats
		mu.Lock()
		res.Shed, res.Throttled, res.Decreases = s.Shed, s.Throttled, s.Decreases
		mu.Unlock()
	}
	mu.Lock()
	defer mu.Unlock()
	return res
}

// GoodputInverted reports the congestion-collapse signature: offering
// more delivered less.
func GoodputInverted(moderate, heavy DegradeResult) bool {
	return heavy.Delivered < moderate.Delivered
}

// CheckGracefulDegradation is the invariant the ADAPT arm must hold
// under the pinned scenario, as a checker in the style of the
// virtual-synchrony invariants: no goodput inversion between the two
// offered loads, per-cast latency of everything delivered bounded by
// latencyBound, and evidence that the control loop actually engaged
// under the heavy load (backoffs taken, casts paced) — a pass on a
// loop that never fired would prove nothing.
func CheckGracefulDegradation(moderate, heavy DegradeResult, latencyBound time.Duration) []error {
	var errs []error
	if GoodputInverted(moderate, heavy) {
		errs = append(errs, fmt.Errorf(
			"graceful-degradation: goodput inverted: heavy load delivered %d < moderate %d",
			heavy.Delivered, moderate.Delivered))
	}
	for _, r := range []struct {
		name string
		res  DegradeResult
	}{{"moderate", moderate}, {"heavy", heavy}} {
		if r.res.MaxLatency > latencyBound {
			errs = append(errs, fmt.Errorf(
				"graceful-degradation: %s load delivered a cast %v after it was offered (bound %v)",
				r.name, r.res.MaxLatency, latencyBound))
		}
		if r.res.Delivered == 0 {
			errs = append(errs, fmt.Errorf(
				"graceful-degradation: %s load delivered nothing", r.name))
		}
	}
	if heavy.Decreases == 0 {
		errs = append(errs, fmt.Errorf(
			"graceful-degradation: heavy load never triggered a multiplicative decrease"))
	}
	if heavy.Throttled == 0 {
		errs = append(errs, fmt.Errorf(
			"graceful-degradation: heavy load was never paced"))
	}
	return errs
}
