package integration

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/causal"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/layers/pinwheel"
	"horus/internal/layers/safe"
	"horus/internal/layers/stable"
	"horus/internal/layers/tstamp"
	"horus/internal/message"
	"horus/internal/netsim"
)

// ackCollector acknowledges every delivery immediately and tracks
// stability reports.
type ackCollector struct {
	name       string
	group      *core.Group
	casts      []string
	stables    int
	lastMatrix *core.StabilityMatrix
	autoAck    bool
}

func (c *ackCollector) handler() core.Handler {
	return func(ev *core.Event) {
		switch ev.Type {
		case core.UCast:
			c.casts = append(c.casts, string(ev.Msg.Body()))
			if c.autoAck && !ev.ID.Origin.IsZero() {
				c.group.Ack(ev.ID)
			}
		case core.UStable:
			c.stables++
			c.lastMatrix = ev.Stability
		}
	}
}

// buildStackGroup forms an n-member group over an arbitrary stack.
func buildStackGroup(t *testing.T, net *netsim.Network, n int, mk func() core.StackSpec, auto bool) ([]*core.Endpoint, []*core.Group, []*ackCollector) {
	t.Helper()
	eps := make([]*core.Endpoint, n)
	groups := make([]*core.Group, n)
	cols := make([]*ackCollector, n)
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("%c", 'a'+i)
		eps[i] = net.NewEndpoint(site)
		cols[i] = &ackCollector{name: site, autoAck: auto}
		g, err := eps[i].Join("grp", mk(), cols[i].handler())
		if err != nil {
			t.Fatal(err)
		}
		cols[i].group = g
		groups[i] = g
	}
	if err := net.Form(groups, time.Duration(n)*300*time.Millisecond+2*time.Second); err != nil {
		t.Fatal(err)
	}
	return eps, groups, cols
}

func stableStack() core.StackSpec {
	return core.StackSpec{
		stable.New,
		mbrship.NewWith(
			mbrship.WithGossipPeriod(40*time.Millisecond),
			mbrship.WithFlushTimeout(500*time.Millisecond),
		),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithNakResend(15*time.Millisecond),
			nak.WithSuspectAfter(6),
		),
		com.New,
	}
}

func pinwheelStack() core.StackSpec {
	return core.StackSpec{
		pinwheel.New,
		mbrship.NewWith(
			mbrship.WithGossipPeriod(40*time.Millisecond),
			mbrship.WithFlushTimeout(500*time.Millisecond),
		),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithNakResend(15*time.Millisecond),
			nak.WithSuspectAfter(6),
		),
		com.New,
	}
}

// testStabilityConvergence drives either stability provider and
// asserts the matrix converges to full stability after acks, and that
// every member sent stability messages (sent reads its count).
func testStabilityConvergence(t *testing.T, mk func() core.StackSpec, sent func(*core.Group) int) {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: 61, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps, groups, cols := buildStackGroup(t, net, 3, mk, true)

	base := net.Now()
	const n = 12
	for i := 0; i < n; i++ {
		i := i
		net.At(base+time.Duration(i)*5*time.Millisecond, func() {
			groups[i%3].Cast(message.New([]byte(fmt.Sprintf("m%d", i))))
		})
	}
	net.RunFor(3 * time.Second)

	for i, c := range cols {
		if len(c.casts) != n {
			t.Errorf("%s: delivered %d, want %d", c.name, len(c.casts), n)
		}
		if c.stables == 0 {
			t.Fatalf("%s: no STABLE upcalls", c.name)
		}
		m := c.lastMatrix
		if m == nil {
			t.Fatalf("%s: no stability matrix", c.name)
		}
		// Every member cast n/3 messages; with universal acking each
		// origin's messages must be fully stable everywhere.
		for _, ep := range eps {
			r := slices.Index(m.Members, ep.ID())
			if r < 0 {
				t.Errorf("%s: matrix %v has no row for %v", c.name, m, ep.ID())
			} else if got := m.MinStable(r); got != uint64(n/3) {
				t.Errorf("%s: MinStable(%v) = %d, want %d (matrix %v)",
					c.name, ep.ID(), got, n/3, m)
			}
		}
		if sent(groups[i]) == 0 {
			t.Errorf("%s: sent no stability messages", c.name)
		}
	}
}

func TestStableMatrixConverges(t *testing.T) {
	testStabilityConvergence(t, stableStack, func(g *core.Group) int {
		return g.Focus("STABLE").(*stable.Stable).Stats().GossipsSent
	})
}

func TestPinwheelMatrixConverges(t *testing.T) {
	testStabilityConvergence(t, pinwheelStack, func(g *core.Group) int {
		return g.Focus("PINWHEEL").(*pinwheel.Pinwheel).Stats().TokenSent
	})
}

// TestStabilityIsEndToEnd shows the paper's §9 point: stability tracks
// the application's acks, not receipt. A member that never acks keeps
// everyone's messages unstable.
func TestStabilityIsEndToEnd(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 67, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps, groups, cols := buildStackGroup(t, net, 3, stableStack, true)
	cols[2].autoAck = false // c receives but never processes

	base := net.Now()
	for i := 0; i < 6; i++ {
		i := i
		net.At(base+time.Duration(i)*5*time.Millisecond, func() {
			groups[0].Cast(message.New([]byte(fmt.Sprintf("m%d", i))))
		})
	}
	net.RunFor(2 * time.Second)

	m := cols[0].lastMatrix
	if m == nil {
		t.Fatal("a: no stability matrix")
	}
	rank := make([]int, len(eps))
	for i, ep := range eps {
		if rank[i] = slices.Index(m.Members, ep.ID()); rank[i] < 0 {
			t.Fatalf("matrix %v has no place for %v", m, ep.ID())
		}
	}
	a := rank[0]
	if got := m.MinStable(a); got != 0 {
		t.Errorf("MinStable = %d with a non-acking member, want 0", got)
	}
	// The two acking members have registered their processing.
	if got := m.Acked[a][rank[1]]; got != 6 {
		t.Errorf("acks from b = %d, want 6", got)
	}
	if got := m.Acked[a][rank[2]]; got != 0 {
		t.Errorf("acks from silent c = %d, want 0", got)
	}
}

func safeStack() core.StackSpec {
	spec := core.StackSpec{safe.New}
	return append(spec, stableStack()...)
}

// TestSafeDeliveryWaitsForAllMembers cuts one member off and checks
// that SAFE withholds delivery until the partition heals (safe
// delivery = everyone has the message).
func TestSafeDeliveryWaitsForAllMembers(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 71, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps, groups, cols := buildStackGroup(t, net, 3, safeStack, false)

	// Delay all traffic to/from c (slow, but under the failure
	// suspicion window of 6 x 20ms, so no view change fires).
	slow := netsim.Link{Delay: 80 * time.Millisecond}
	net.SetLink(eps[0].ID(), eps[2].ID(), slow)
	net.SetLink(eps[1].ID(), eps[2].ID(), slow)

	base := net.Now()
	net.At(base, func() { groups[0].Cast(message.New([]byte("S"))) })

	// Shortly after the cast, a and b have the message but c does not:
	// nobody may deliver yet.
	net.RunFor(50 * time.Millisecond)
	for _, c := range cols[:2] {
		if len(c.casts) != 0 {
			t.Errorf("%s: delivered %v before the message was everywhere (safe delivery violated)", c.name, c.casts)
		}
	}

	// Once c's slow copy lands and its ack propagates, everyone
	// delivers.
	net.RunFor(2 * time.Second)
	for _, c := range cols {
		if len(c.casts) != 1 || c.casts[0] != "S" {
			t.Errorf("%s: final deliveries %v, want [S]", c.name, c.casts)
		}
	}
}

func causalStack() core.StackSpec {
	return core.StackSpec{
		causal.New,
		tstamp.New,
		mbrship.NewWith(
			mbrship.WithGossipPeriod(40*time.Millisecond),
			mbrship.WithFlushTimeout(500*time.Millisecond),
		),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithNakResend(15*time.Millisecond),
			nak.WithSuspectAfter(6),
		),
		com.New,
	}
}

// TestCausalOrderAcrossMembers creates a causal chain a→b→c with the
// network arranged so the direct copy of the first message reaches c
// AFTER the reply it caused. CAUSAL must hold the reply until its
// cause arrives.
func TestCausalOrderAcrossMembers(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 73, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps, groups, cols := buildStackGroup(t, net, 3, causalStack, false)

	// a's messages crawl to c; b's sprint.
	net.SetLink(eps[0].ID(), eps[2].ID(), netsim.Link{Delay: 100 * time.Millisecond})

	// b replies to a's message as soon as it sees it (a fast poll
	// stands in for a reactive handler).
	var replied bool
	base := net.Now()
	net.At(base, func() { groups[0].Cast(message.New([]byte("cause"))) })
	var poll func()
	poll = func() {
		if !replied {
			for _, p := range cols[1].casts {
				if p == "cause" {
					replied = true
					groups[1].Cast(message.New([]byte("effect")))
					return
				}
			}
			net.At(net.Now()+time.Millisecond, poll)
		}
	}
	net.At(base+time.Millisecond, poll)
	net.RunFor(3 * time.Second)

	for _, c := range cols {
		var gotCause, gotEffect = -1, -1
		for i, p := range c.casts {
			switch p {
			case "cause":
				gotCause = i
			case "effect":
				gotEffect = i
			}
		}
		if gotCause == -1 || gotEffect == -1 {
			t.Fatalf("%s: missing deliveries: %v", c.name, c.casts)
		}
		if gotEffect < gotCause {
			t.Errorf("%s: effect delivered before cause: %v (causal order violated)", c.name, c.casts)
		}
	}
	// Sanity: the slow link really would have reordered without CAUSAL
	// (the direct copy of "cause" takes 100ms to c; "effect" ~2ms).
	cl := groups[2].Focus("CAUSAL").(*causal.Causal)
	if cl.Stats().Buffered == 0 {
		t.Error("c never buffered a message; the causal path was not exercised")
	}
}
