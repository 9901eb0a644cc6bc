package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"horus/internal/core"
	"horus/internal/layers/adapt"
	"horus/internal/layers/com"
	"horus/internal/layers/compress"
	"horus/internal/layers/hbeat"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/layers/switchp"
	"horus/internal/layers/total"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/property"
)

// Config parameterizes a chaos cluster.
type Config struct {
	Seed    int64
	Members int

	// Link is the default (healthy) link; zero means a perfect network,
	// which hides nothing, so callers usually want some delay + loss.
	Link netsim.Link

	// Fabric is the transport substrate. Nil means the deterministic
	// simulated fabric built from Seed and Link; pass a
	// chaosnet.Fabric to run the same cluster over real UDP sockets
	// at wall-clock speed.
	Fabric Fabric

	// CastEvery is the workload period: every live member casts one
	// payload per period. Zero means 70ms.
	CastEvery time.Duration

	// ReconcileEvery is how often stragglers are re-merged toward the
	// anchor. Zero means 250ms.
	ReconcileEvery time.Duration

	// Stack overrides the default MBRSHIP:HBEAT:NAK:COM stack. Each
	// call must return a fresh spec.
	Stack func() core.StackSpec

	// Trace, when set, receives layer diagnostics from every member,
	// prefixed with the fabric time and the member's slot.incarnation.
	// Replaying a failing seed with a trace sink is the fastest way to
	// see the exact protocol exchange behind a violation.
	Trace func(format string, args ...interface{})
}

// DefaultStack is the chaos stack: membership over the heartbeat
// failure detector over reliable FIFO. NAK's own silence-based
// suspicion is disabled (WithSuspectAfter(0)) so every failure the
// cluster survives was detected by HBEAT — no manual PROBLEM
// injection, no second detector to hide behind.
func DefaultStack() core.StackSpec {
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

// PrimaryStack is DefaultStack with mbrship primary-partition
// arithmetic enabled for a full group of `members`: minority views are
// marked non-primary and their casts defer until quorum returns. The
// harsh soak runs it so majority loss and multi-way partitions
// exercise the primary flag, not just view plumbing.
func PrimaryStack(members int) func() core.StackSpec {
	return func() core.StackSpec {
		spec := DefaultStack()
		spec[0] = mbrship.NewWith(
			mbrship.WithGossipPeriod(40*time.Millisecond),
			mbrship.WithFlushTimeout(400*time.Millisecond),
			mbrship.WithPrimaryPartition(members),
		)
		return spec
	}
}

// SwitchStack is DefaultStack with a SWITCH reconfiguration layer on
// top: the segment starts empty (plain FIFO personality) and KindSwitch
// actions upgrade, downgrade, or reshape it at run time. The resolver
// offers the same chaos-tuned layer recipes a static stack would use,
// so a reconfigured TOTAL retries its sequencer requests fast enough
// to make progress between faults. A switch has no deadline of its
// own: it commits once every member's marker is in, and a view change
// decides any switch still pending, on either fabric.
func SwitchStack() core.StackSpec {
	return switchOver(DefaultStack())
}

// PrimarySwitchStack is SWITCH over PrimaryStack: the harsh soak's
// primary-partition base with run-time reconfiguration on top. Without
// the primary flag a harsh multi-way split lets both sides keep
// delivering independently, which no layer above membership can
// repair; switch storms on harsh schedules must therefore ride the
// primary base.
func PrimarySwitchStack(members int) func() core.StackSpec {
	return func() core.StackSpec {
		return switchOver(PrimaryStack(members)())
	}
}

// switchOver prepends the chaos-tuned SWITCH layer to a base stack.
func switchOver(spec core.StackSpec) core.StackSpec {
	resolver := func(name string) (core.Factory, bool) {
		switch name {
		case "TOTAL":
			return total.NewWith(total.WithRequestRetry(60 * time.Millisecond)), true
		case "COMPRESS":
			return compress.New, true
		case "ADAPT":
			return adapt.New, true
		}
		return nil, false
	}
	return append(core.StackSpec{
		// The chaos base is hand-tuned off the Table 3 grid (no FRAG),
		// so SWITCH validates targets against the declared base
		// properties instead of re-deriving the below layers.
		switchp.NewWith(
			switchp.WithResolver(resolver),
			switchp.WithOpaqueBase(property.SegmentBase),
		),
	}, spec...)
}

// member is one slot's current incarnation.
type member struct {
	slot int
	inc  int
	ep   *core.Endpoint
	g    *core.Group
	hist *History
	seq  int  // workload sequence, per incarnation
	down bool // crashed, awaiting recover
}

// Cluster drives a group of members over a fabric, applies fault
// schedules, runs a cast workload, and keeps trying to re-merge
// whatever the faults split apart.
//
// On the simulated fabric everything runs on one goroutine; on a
// wall-clock fabric the workload, reconciler, and fault timers fire
// concurrently, so the slot table is mutex-guarded and all protocol
// interaction goes through each endpoint's run-to-completion executor.
type Cluster struct {
	fab Fabric
	cfg Config

	mu        sync.Mutex
	members   []*member  // by slot; current incarnation
	Histories []*History // every incarnation that ever lived, in boot order
}

// NewCluster builds the fabric (if none was supplied) and boots one
// endpoint per slot. Call Form to merge them into a single view.
func NewCluster(cfg Config) *Cluster {
	if cfg.Members < 2 {
		panic("chaos: need at least 2 members")
	}
	if cfg.CastEvery == 0 {
		cfg.CastEvery = 70 * time.Millisecond
	}
	if cfg.ReconcileEvery == 0 {
		cfg.ReconcileEvery = 250 * time.Millisecond
	}
	if cfg.Stack == nil {
		cfg.Stack = DefaultStack
	}
	if cfg.Fabric == nil {
		cfg.Fabric = NewSimFabric(cfg.Seed, cfg.Link)
	}
	c := &Cluster{fab: cfg.Fabric, cfg: cfg}
	c.members = make([]*member, cfg.Members)
	c.mu.Lock()
	for slot := 0; slot < cfg.Members; slot++ {
		c.boot(slot, 0)
	}
	c.mu.Unlock()
	return c
}

// Fabric returns the transport substrate the cluster runs over.
func (c *Cluster) Fabric() Fabric { return c.fab }

// Close releases the fabric (sockets, goroutines) and returns once no
// member can record anything more. Call it before Check on a
// wall-clock fabric so histories are quiescent. The fabric's Close
// stops the workload's and the reconciler's timers and destroys every
// stack, but an endpoint whose executor another goroutine (a socket
// reader, a protocol timer) is draining at that moment only has the
// destruction queued; so each executor is drained behind it.
func (c *Cluster) Close() {
	c.fab.Close()
	c.mu.Lock()
	members := append([]*member(nil), c.members...)
	c.mu.Unlock()
	for _, m := range members {
		drained := make(chan struct{})
		m.ep.Do(func() { close(drained) })
		<-drained
	}
}

// boot creates incarnation inc of the given slot and joins the group.
// Callers hold c.mu.
func (c *Cluster) boot(slot, inc int) {
	site := fmt.Sprintf("s%d", slot)
	ep := c.fab.NewEndpoint(site)
	if c.cfg.Trace != nil {
		trace, slot, inc := c.cfg.Trace, slot, inc
		ep.SetTrace(func(format string, args ...interface{}) {
			prefix := fmt.Sprintf("%8v s%d.%d | ", c.fab.Now(), slot, inc)
			trace(prefix+format, args...)
		})
	}
	h := &History{Slot: slot, Inc: inc, ID: ep.ID()}
	m := &member{slot: slot, inc: inc, ep: ep, hist: h}
	g, err := ep.Join("chaos", c.cfg.Stack(), h.handler())
	if err != nil {
		panic(fmt.Sprintf("chaos: boot s%d.%d: %v", slot, inc, err))
	}
	m.g = g
	c.members[slot] = m
	c.Histories = append(c.Histories, h)
}

// id returns the current incarnation's endpoint ID for a slot.
// Callers hold c.mu.
func (c *Cluster) id(slot int) core.EndpointID { return c.members[slot].ep.ID() }

// Form merges all members into one full view and returns an error if
// they fail to converge within the deadline. It also starts the
// workload and the reconciler, which run until the fabric stops.
func (c *Cluster) Form(deadline time.Duration) error {
	c.startReconciler()
	c.startWorkload()
	stop := c.fab.Now() + deadline
	for c.fab.Now() < stop {
		c.fab.RunFor(100 * time.Millisecond)
		if c.converged() {
			return nil
		}
	}
	return fmt.Errorf("chaos: cluster did not form a full view within %v", deadline)
}

// startWorkload arms the recurring cast loop: each tick, every live
// member casts one tagged payload "s<slot>.<inc>-<seq>". The payloads
// are chosen under the cluster lock; the casts themselves run on each
// member's executor so a wall-clock fabric stays race-free.
func (c *Cluster) startWorkload() {
	var tick func()
	tick = func() {
		type cast struct {
			m       *member
			payload string
		}
		c.mu.Lock()
		casts := make([]cast, 0, len(c.members))
		for _, m := range c.members {
			if m.down {
				continue
			}
			m.seq++
			casts = append(casts, cast{m, fmt.Sprintf("s%d.%d-%d", m.slot, m.inc, m.seq)})
		}
		c.mu.Unlock()
		for _, cs := range casts {
			m, payload := cs.m, cs.payload
			m.ep.Do(func() { m.g.Cast(message.New([]byte(payload))) })
		}
		c.fab.At(c.fab.Now()+c.cfg.CastEvery, tick)
	}
	c.fab.At(c.fab.Now()+c.cfg.CastEvery, tick)
}

// startReconciler arms the recurring merge loop. Faults tear views
// apart; the reconciler points every live member that has lost sight
// of the anchor (the oldest live endpoint) back at it. Merges denied or
// lost are simply retried next round.
func (c *Cluster) startReconciler() {
	var tick func()
	tick = func() {
		c.mu.Lock()
		var merges []*member
		var aid core.EndpointID
		if anchor := c.anchor(); anchor != nil {
			aid = anchor.ep.ID()
			for _, m := range c.members {
				if m.down || m == anchor {
					continue
				}
				v := m.hist.Last()
				if v == nil || !v.Contains(aid) {
					merges = append(merges, m)
				}
			}
		}
		c.mu.Unlock()
		for _, m := range merges {
			m := m
			m.ep.Do(func() { m.g.Merge(aid) })
		}
		c.fab.At(c.fab.Now()+c.cfg.ReconcileEvery, tick)
	}
	c.fab.At(c.fab.Now()+c.cfg.ReconcileEvery, tick)
}

// anchor returns the live member with the oldest endpoint, or nil.
// Oldest — not lowest slot — because MBRSHIP only accepts merge
// requests at its view's coordinator, the oldest surviving endpoint.
// A recovered low slot is a young endpoint: pointing merges at it
// wedges every stray member on "not coordinator" denials, while the
// oldest live endpoint coordinates whatever view it is in. This is
// the MERGE layer's age rule, applied by the harness.
// Callers hold c.mu.
func (c *Cluster) anchor() *member {
	var a *member
	for _, m := range c.members {
		if m.down {
			continue
		}
		if a == nil || m.ep.ID().Older(a.ep.ID()) {
			a = m
		}
	}
	return a
}

// converged reports whether every live member's current view contains
// exactly the live incarnations. Views are read from the recorded
// histories, which are the transport-agnostic ground truth.
func (c *Cluster) converged() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	want := map[core.EndpointID]bool{}
	live := 0
	for _, m := range c.members {
		if !m.down {
			want[m.ep.ID()] = true
			live++
		}
	}
	for _, m := range c.members {
		if m.down {
			continue
		}
		v := m.hist.Last()
		if v == nil || v.Size() != live {
			return false
		}
		for _, id := range v.Members {
			if !want[id] {
				return false
			}
		}
	}
	return live > 0
}

// Apply schedules every action of s, offset from the current fabric
// time. Slots are resolved to incarnations at fire time.
func (c *Cluster) Apply(s Schedule) {
	base := c.fab.Now()
	for _, a := range s.Sorted() {
		a := a
		c.fab.At(base+a.At, func() { c.apply(a) })
	}
}

// applyFault fires a link, host, partition or heal action against fab,
// resolving slots through id, and reports whether a.Kind was one of
// those. The cluster and the degradation trio share it; kinds that need
// a member's process (crash, recover, switch) are the caller's.
func applyFault(fab Fabric, id func(slot int) core.EndpointID, a Action) bool {
	switch a.Kind {
	case KindSetLink:
		fab.SetLink(id(a.A), id(a.B), a.Link)
	case KindSetLinkDirected:
		fab.SetLinkDirected(id(a.A), id(a.B), a.Link)
	case KindClearLink:
		fab.ClearLink(id(a.A), id(a.B))
	case KindSetHost:
		fab.SetHost(id(a.A), a.Host)
	case KindClearHost:
		fab.ClearHost(id(a.A))
	case KindPartition:
		groups := make([][]core.EndpointID, len(a.Sides))
		for i, slots := range a.Sides {
			for _, s := range slots {
				groups[i] = append(groups[i], id(s))
			}
		}
		fab.Partition(groups...)
	case KindHeal:
		fab.Heal()
	default:
		return false
	}
	return true
}

func (c *Cluster) apply(a Action) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if applyFault(c.fab, c.id, a) {
		return
	}
	switch a.Kind {
	case KindCrash:
		m := c.members[a.A]
		if m.down {
			return
		}
		m.down = true
		m.hist.Crashed = true
		c.fab.Crash(m.ep.ID())
	case KindRecover:
		m := c.members[a.A]
		if !m.down {
			return
		}
		// A recovered process is a new incarnation: the old endpoint is
		// detached (its links and fan-out entries die with it) and a
		// fresh one boots at the same site. The reconciler merges it
		// back into the group.
		c.fab.Detach(m.ep.ID())
		c.boot(a.A, m.inc+1)
	case KindSwitch:
		m := c.members[a.A]
		if m.down {
			return
		}
		sw, ok := m.g.Focus("SWITCH").(*switchp.Switch)
		if !ok {
			return // stack has no SWITCH layer; the action is a no-op
		}
		target := a.Target
		// Refusals (no view yet, switch already pending, bad target)
		// are part of the storm: the next action tries again elsewhere.
		m.ep.Do(func() { _ = sw.RequestSwitch(target) })
	}
}

// Run advances the fabric.
func (c *Cluster) Run(d time.Duration) { c.fab.RunFor(d) }

// Settle runs until the cluster has converged on a full live view, in
// slices of `step`, failing after `deadline`.
func (c *Cluster) Settle(deadline time.Duration) error {
	stop := c.fab.Now() + deadline
	for c.fab.Now() < stop {
		c.fab.RunFor(100 * time.Millisecond)
		if c.converged() {
			return nil
		}
	}
	c.mu.Lock()
	var views []string
	for _, m := range c.members {
		views = append(views, fmt.Sprintf("s%d.%d:%v", m.slot, m.inc, m.hist.Last()))
	}
	c.mu.Unlock()
	return fmt.Errorf("chaos: cluster did not re-converge within %v:\n  %s",
		deadline, strings.Join(views, "\n  "))
}

// Check runs every invariant checker over the full history set. On a
// wall-clock fabric, Close first so the histories are quiescent.
func (c *Cluster) Check() []error {
	c.mu.Lock()
	hs := append([]*History(nil), c.Histories...)
	c.mu.Unlock()
	return CheckAll(hs)
}

// Digest returns a stable fingerprint of everything every incarnation
// observed — view chains and delivery streams — for determinism
// assertions: two runs of the same seed must produce equal digests.
func (c *Cluster) Digest() string {
	c.mu.Lock()
	hs := append([]*History(nil), c.Histories...)
	c.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Slot != hs[j].Slot {
			return hs[i].Slot < hs[j].Slot
		}
		return hs[i].Inc < hs[j].Inc
	})
	var b strings.Builder
	for _, h := range hs {
		fmt.Fprintf(&b, "s%d.%d views=[", h.Slot, h.Inc)
		for _, v := range h.Views {
			fmt.Fprintf(&b, " %d@%s/%d", v.ID.Seq, v.ID.Coord.Site, v.Size())
		}
		b.WriteString(" ] casts=[")
		for _, d := range h.Deliveries {
			if d.Lost {
				fmt.Fprintf(&b, " %d:lost!", d.View.Seq)
				continue
			}
			fmt.Fprintf(&b, " %d:%s", d.View.Seq, d.Payload)
		}
		b.WriteString(" ]")
		if len(h.Switches) > 0 {
			b.WriteString(" switches=[")
			for _, s := range h.Switches {
				if s.Committed {
					fmt.Fprintf(&b, " %d:commit:%q", s.View.Seq, s.Detail)
				} else {
					fmt.Fprintf(&b, " %d:abort", s.View.Seq)
				}
			}
			b.WriteString(" ]")
		}
		b.WriteString("\n")
	}
	return b.String()
}
