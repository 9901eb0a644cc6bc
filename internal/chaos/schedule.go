// Package chaos is a deterministic fault-injection harness over the
// simulated network: a Schedule is a timeline of typed fault actions
// (link degradation, asymmetric loss, flaps, crash and recover,
// rolling partitions, heal) applied to a Cluster of group members,
// while a library of invariant checkers asserts that the stack keeps
// its virtual-synchrony promises under fire.
//
// Everything is seeded: the network simulation, the random schedule
// generator, and the cluster workload share no wall-clock or map-order
// nondeterminism, so a failing seed replays exactly.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"horus/internal/netsim"
)

// Kind discriminates fault actions.
type Kind uint8

// Fault-action kinds.
const (
	KindSetLink         Kind = iota // symmetric link override between slots A,B
	KindSetLinkDirected             // directed override A -> B only
	KindClearLink                   // drop overrides between A,B (both directions)
	KindCrash                       // crash slot A's current incarnation
	KindRecover                     // boot a fresh incarnation at slot A's site
	KindPartition                   // split the network into the Sides components
	KindHeal                        // remove the partition
	KindSetHost                     // per-host limits (egress budget) on slot A
	KindClearHost                   // drop slot A's per-host limits
	KindSwitch                      // slot A requests a stack reconfiguration to Target
)

var kindNames = [...]string{
	"set-link", "set-link-directed", "clear-link",
	"crash", "recover", "partition", "heal",
	"set-host", "clear-host", "switch",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Action is one timed fault. Slots (A, B, Sides) name cluster members
// by position, not endpoint identity: the driver resolves a slot to
// its *current* incarnation when the action fires, so a crash/recover
// cycle in between changes which endpoint a later action hits —
// exactly as a real operator script keyed by hostname would behave.
// Link overrides die with the incarnation they were applied to
// (recovery detaches the old endpoint and its links).
type Action struct {
	At    time.Duration // offset from schedule start
	Kind  Kind
	A, B  int         // member slots (A only, for crash/recover/host kinds)
	Link  netsim.Link // for set-link kinds
	Host  netsim.Host // for set-host
	Sides [][]int     // partition components; two-way or multi-way
	Note  string      // provenance, e.g. "ramp 2/5"

	// Target is the segment description a KindSwitch action asks slot
	// A to reconfigure to ("" empties the segment back to the plain
	// FIFO personality). Ignored by every other kind.
	Target string
}

func (a Action) String() string {
	switch a.Kind {
	case KindSetLink, KindSetLinkDirected:
		extra := ""
		if a.Link.Bandwidth > 0 {
			extra = fmt.Sprintf(" bw=%dB/s", a.Link.Bandwidth)
		}
		if a.Link.ReorderRate > 0 {
			extra += fmt.Sprintf(" reorder=%.2f/k%d", a.Link.ReorderRate, a.Link.ReorderDepth)
		}
		return fmt.Sprintf("%8v %s s%d-s%d loss=%.2f delay=%v%s %s",
			a.At, a.Kind, a.A, a.B, a.Link.LossRate, a.Link.Delay, extra, a.Note)
	case KindClearLink:
		return fmt.Sprintf("%8v %s s%d-s%d %s", a.At, a.Kind, a.A, a.B, a.Note)
	case KindCrash, KindRecover, KindClearHost:
		return fmt.Sprintf("%8v %s s%d %s", a.At, a.Kind, a.A, a.Note)
	case KindSetHost:
		return fmt.Sprintf("%8v %s s%d egress=%dB/s q=%dB %s",
			a.At, a.Kind, a.A, a.Host.EgressBudget, a.Host.EgressQueue, a.Note)
	case KindSwitch:
		return fmt.Sprintf("%8v %s s%d -> %q %s", a.At, a.Kind, a.A, a.Target, a.Note)
	case KindPartition:
		parts := make([]string, len(a.Sides))
		for i, side := range a.Sides {
			parts[i] = fmt.Sprint(side)
		}
		return fmt.Sprintf("%8v %s %s %s", a.At, a.Kind, strings.Join(parts, "|"), a.Note)
	default:
		return fmt.Sprintf("%8v %s %s", a.At, a.Kind, a.Note)
	}
}

// Schedule is a fault timeline. Actions need not be appended in time
// order; Sorted returns the canonical ordering.
type Schedule []Action

// Sorted returns the schedule ordered by time, ties broken by append
// order (the sort is stable), which keeps replay deterministic.
func (s Schedule) Sorted() Schedule {
	out := append(Schedule(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// End returns the time of the last action, or zero for an empty
// schedule.
func (s Schedule) End() time.Duration {
	var end time.Duration
	for _, a := range s {
		if a.At > end {
			end = a.At
		}
	}
	return end
}

// String renders the timeline one action per line.
func (s Schedule) String() string {
	var b strings.Builder
	for _, a := range s.Sorted() {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RampLoss builds a link-degradation ramp: the symmetric a-b link
// loses packets at linearly increasing rates over `steps` steps of
// `step` duration, reaching `peak`, then clears. The base link (delay,
// jitter) is taken from l; its LossRate is overwritten per step.
func RampLoss(start, step time.Duration, a, b int, l netsim.Link, peak float64, steps int) Schedule {
	var s Schedule
	for i := 1; i <= steps; i++ {
		li := l
		li.LossRate = peak * float64(i) / float64(steps)
		s = append(s, Action{
			At: start + time.Duration(i-1)*step, Kind: KindSetLink,
			A: a, B: b, Link: li, Note: fmt.Sprintf("ramp %d/%d", i, steps),
		})
	}
	s = append(s, Action{
		At: start + time.Duration(steps)*step, Kind: KindClearLink,
		A: a, B: b, Note: "ramp end",
	})
	return s
}

// Flap builds a flapping link: a-b goes fully dead for `down`, comes
// back for `up`, `cycles` times, ending cleared.
func Flap(start, down, up time.Duration, a, b int, cycles int) Schedule {
	var s Schedule
	at := start
	for i := 1; i <= cycles; i++ {
		s = append(s, Action{
			At: at, Kind: KindSetLink, A: a, B: b,
			Link: netsim.Link{LossRate: 1}, Note: fmt.Sprintf("flap down %d/%d", i, cycles),
		})
		at += down
		s = append(s, Action{
			At: at, Kind: KindClearLink, A: a, B: b,
			Note: fmt.Sprintf("flap up %d/%d", i, cycles),
		})
		at += up
	}
	return s
}

// CrashRecover builds a crash of slot a held for `dwell`, then a fresh
// incarnation booted at the same site.
func CrashRecover(start, dwell time.Duration, a int) Schedule {
	return Schedule{
		{At: start, Kind: KindCrash, A: a},
		{At: start + dwell, Kind: KindRecover, A: a},
	}
}

// BandwidthSqueeze caps the symmetric a-b link at `bps` bytes per
// second for `dwell`, then clears. The base link (delay, jitter) is
// taken from l; while the cap holds, bursts queue behind each other
// and the fabric's Throttled ledger counts every frame that waited.
func BandwidthSqueeze(start, dwell time.Duration, a, b int, l netsim.Link, bps int) Schedule {
	li := l
	li.Bandwidth = bps
	return Schedule{
		{At: start, Kind: KindSetLink, A: a, B: b, Link: li, Note: "bw squeeze"},
		{At: start + dwell, Kind: KindClearLink, A: a, B: b, Note: "bw squeeze end"},
	}
}

// EgressSqueeze caps slot a's total egress at `bps` bytes per second
// for `dwell`, then clears. The budget is shared across every outgoing
// link of the member — the shared NIC queue the per-link bandwidth cap
// cannot model — so one saturated flow delays every flow the member
// originates. `queue` bounds the backlog in bytes (zero means the
// fabric default): while the squeeze holds, packets past the budget
// queue into the Congested ledger and packets past the queue bound
// drop into CollapseDropped, which is how schedules express congestion
// collapse rather than mere delay.
func EgressSqueeze(start, dwell time.Duration, a int, bps, queue int) Schedule {
	return Schedule{
		{At: start, Kind: KindSetHost, A: a,
			Host: netsim.Host{EgressBudget: bps, EgressQueue: queue}, Note: "egress squeeze"},
		{At: start + dwell, Kind: KindClearHost, A: a, Note: "egress squeeze end"},
	}
}

// SwitchStorm builds a barrage of run-time reconfiguration requests:
// `count` switches, one every `every` from `start`, issued from
// rotating initiator slots (mod `members`) and cycling through the
// `targets` segment descriptions. Interleaved with partitions,
// crashes or egress squeezes it produces exactly the hostile overlap
// the SWITCH protocol's abort/rollback edges exist for; on a calm
// fabric it proves repeated upgrades and downgrades converge.
func SwitchStorm(start, every time.Duration, count, members int, targets []string) Schedule {
	var s Schedule
	at := start
	for i := 0; i < count; i++ {
		tgt := targets[i%len(targets)]
		s = append(s, Action{
			At: at, Kind: KindSwitch, A: i % members, Target: tgt,
			Note: fmt.Sprintf("switch storm %d/%d", i+1, count),
		})
		at += every
	}
	return s
}

// ReorderBurst arms the explicit reorder rule on the symmetric a-b
// link for `dwell`, then clears: each frame is held with probability
// `rate` until `depth` later frames overtake it. The base link comes
// from l; reordering beyond jitter is exactly the hazard that breaks
// naive layer composition over non-FIFO channels, so schedules use
// this to prove NAK's FIFO restoration under real inversions.
func ReorderBurst(start, dwell time.Duration, a, b int, l netsim.Link, rate float64, depth int) Schedule {
	li := l
	li.ReorderRate = rate
	li.ReorderDepth = depth
	return Schedule{
		{At: start, Kind: KindSetLink, A: a, B: b, Link: li, Note: "reorder burst"},
		{At: start + dwell, Kind: KindClearLink, A: a, B: b, Note: "reorder burst end"},
	}
}
