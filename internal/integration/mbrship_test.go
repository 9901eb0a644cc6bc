package integration

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/layers/total"
	"horus/internal/message"
	"horus/internal/netsim"
)

// vsCollector records deliveries tagged with the view they arrived in,
// for virtual-synchrony assertions.
type vsCollector struct {
	name    string
	views   []*core.View
	casts   map[uint64][]string // view seq -> payloads delivered in that view
	flushes int
	curView uint64
}

func newVSCollector(name string) *vsCollector {
	return &vsCollector{name: name, casts: make(map[uint64][]string)}
}

func (c *vsCollector) handler() core.Handler {
	return func(ev *core.Event) {
		switch ev.Type {
		case core.UView:
			c.views = append(c.views, ev.View)
			c.curView = ev.View.ID.Seq
		case core.UCast:
			c.casts[c.curView] = append(c.casts[c.curView], string(ev.Msg.Body()))
		case core.UFlush:
			c.flushes++
		}
	}
}

func (c *vsCollector) lastView() *core.View {
	if len(c.views) == 0 {
		return nil
	}
	return c.views[len(c.views)-1]
}

// vsStack is the membership stack used throughout: MBRSHIP over NAK
// over COM, with timers shortened for simulation.
func vsStack() core.StackSpec {
	return core.StackSpec{
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

// joinGroup creates n members a, b, ... over stack mk, each joined to
// the group in a view of its own, returning endpoints, groups, and
// collectors.
func joinGroup(t *testing.T, net *netsim.Network, n int, mk func() core.StackSpec) ([]*core.Endpoint, []*core.Group, []*vsCollector) {
	t.Helper()
	eps := make([]*core.Endpoint, n)
	groups := make([]*core.Group, n)
	cols := make([]*vsCollector, n)
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("%c", 'a'+i)
		eps[i] = net.NewEndpoint(site)
		cols[i] = newVSCollector(site)
		g, err := eps[i].Join("grp", mk(), cols[i].handler())
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = g
	}
	return eps, groups, cols
}

// buildGroup is joinGroup followed by net.Form, with virtual time
// enough for the full view to form.
func buildGroup(t *testing.T, net *netsim.Network, n int, mk func() core.StackSpec) ([]*core.Endpoint, []*core.Group, []*vsCollector) {
	t.Helper()
	eps, groups, cols := joinGroup(t, net, n, mk)
	if err := net.Form(groups, time.Duration(n)*300*time.Millisecond+2*time.Second); err != nil {
		t.Fatal(err)
	}
	return eps, groups, cols
}

func TestJoinByMergeFormsGroup(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 11, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	_, _, cols := buildGroup(t, net, 4, vsStack)

	// Every member ends in the identical view.
	ref := cols[0].lastView()
	for i, c := range cols {
		v := c.lastView()
		if v.ID != ref.ID || v.Size() != ref.Size() {
			t.Errorf("member %d: view %v differs from %v", i, v, ref)
		}
		for j := range v.Members {
			if v.Members[j] != ref.Members[j] {
				t.Errorf("member %d: member list %v differs from %v", i, v.Members, ref.Members)
			}
		}
	}
}

func TestCastDeliveryInGroup(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 12, DefaultLink: netsim.Link{Delay: time.Millisecond, LossRate: 0.05}})
	_, groups, cols := buildGroup(t, net, 3, vsStack)

	base := net.Now()
	for i := 0; i < 30; i++ {
		i := i
		net.At(base+time.Duration(i)*5*time.Millisecond, func() {
			groups[i%3].Cast(message.New([]byte(fmt.Sprintf("m%d-%d", i%3, i))))
		})
	}
	net.RunFor(2 * time.Second)

	// All members deliver all 30 messages (sender self-delivery
	// included), in the current view.
	cur := cols[0].lastView().ID.Seq
	for i, c := range cols {
		got := c.casts[cur]
		if len(got) != 30 {
			t.Errorf("member %d delivered %d casts in view %d, want 30: %v", i, len(got), cur, got)
		}
		// Per-sender FIFO must hold.
		last := map[string]int{}
		for _, p := range got {
			var sender, seq int
			if _, err := fmt.Sscanf(p, "m%d-%d", &sender, &seq); err != nil {
				t.Fatalf("member %d: bad payload %q", i, p)
			}
			if seq <= last[fmt.Sprint(sender)] && last[fmt.Sprint(sender)] != 0 {
				t.Errorf("member %d: FIFO violation for sender %d: %v", i, sender, got)
			}
			last[fmt.Sprint(sender)] = seq
		}
	}
}

// TestFigure2Scenario reproduces the paper's Figure 2: four processes
// A, B, C, D. D crashes right after sending a message M, and only C
// receives a copy. After the crash is detected, A (the oldest member)
// starts the flush; C returns the unstable M, which reaches A and is
// forwarded to B; after all FLUSH_OK replies, A installs the view
// {A, B, C}. Virtual synchrony: all three survivors deliver M, in the
// old view, exactly once.
func TestFigure2Scenario(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 13, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps, groups, cols := buildGroup(t, net, 4, vsStack)
	a, b, d := eps[0], eps[1], eps[3] // C keeps a clean link to D

	oldView := cols[3].lastView().ID.Seq

	// D's copies toward A and B (and itself) are lost; only C hears M.
	net.SetLink(d.ID(), a.ID(), netsim.Link{Delay: time.Millisecond, LossRate: 1})
	net.SetLink(d.ID(), b.ID(), netsim.Link{Delay: time.Millisecond, LossRate: 1})
	net.SetLink(d.ID(), d.ID(), netsim.Link{Delay: time.Millisecond, LossRate: 1})

	base := net.Now()
	net.At(base, func() { groups[3].Cast(message.New([]byte("M"))) })
	// Crash D right after C's copy is on the wire, before any NAK
	// recovery can involve D.
	net.At(base+2*time.Millisecond, func() { net.Crash(d.ID()) })
	net.RunFor(3 * time.Second)

	for i, col := range cols[:3] {
		v := col.lastView()
		if v == nil || v.Size() != 3 {
			t.Fatalf("%s: final view %v, want 3 survivors", col.name, v)
		}
		if v.Contains(d.ID()) {
			t.Errorf("%s: crashed member still in view %v", col.name, v)
		}
		got := col.casts[oldView]
		mCount := 0
		for _, p := range got {
			if p == "M" {
				mCount++
			}
		}
		if mCount != 1 {
			t.Errorf("%s: delivered M %d times in view %d, want exactly once (got %v)",
				col.name, mCount, oldView, got)
		}
		if col.flushes == 0 {
			t.Errorf("%s: no FLUSH upcall observed", col.name)
		}
		_ = i
	}

	// All survivors end in the same view.
	ref := cols[0].lastView()
	for _, col := range cols[1:3] {
		if col.lastView().ID != ref.ID {
			t.Errorf("%s: view %v != %v", col.name, col.lastView(), ref)
		}
	}
}

// TestVirtualSynchronyUnderCrash asserts the core guarantee: messages
// delivered in a view are delivered to all surviving members of that
// view — survivors' per-view delivery sets are identical, even when a
// sender crashes mid-stream under loss.
func TestVirtualSynchronyUnderCrash(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 17, DefaultLink: netsim.Link{
		Delay:    time.Millisecond,
		Jitter:   2 * time.Millisecond,
		LossRate: 0.1,
	}})
	eps, groups, cols := buildGroup(t, net, 4, vsStack)

	base := net.Now()
	// Everyone casts continuously; D crashes in the middle.
	for i := 0; i < 40; i++ {
		i := i
		net.At(base+time.Duration(i)*4*time.Millisecond, func() {
			groups[i%4].Cast(message.New([]byte(fmt.Sprintf("m%d-%d", i%4, i))))
		})
	}
	net.At(base+80*time.Millisecond, func() { net.Crash(eps[3].ID()) })
	net.RunFor(5 * time.Second)

	// Survivors converge on a 3-member view.
	for _, col := range cols[:3] {
		v := col.lastView()
		if v == nil || v.Size() != 3 {
			t.Fatalf("%s: final view %v, want 3 members", col.name, v)
		}
	}
	// Per-view delivery sets are identical across survivors for every
	// view at least two survivors passed through.
	viewSeqs := map[uint64]bool{}
	for _, col := range cols[:3] {
		for seq := range col.casts {
			viewSeqs[seq] = true
		}
	}
	for seq := range viewSeqs {
		var ref map[string]bool
		var refName string
		for _, col := range cols[:3] {
			inView := false
			for _, v := range col.views {
				if v.ID.Seq == seq {
					inView = true
					break
				}
			}
			if !inView {
				continue
			}
			set := map[string]bool{}
			for _, p := range col.casts[seq] {
				if set[p] {
					t.Errorf("%s: duplicate delivery of %q in view %d", col.name, p, seq)
				}
				set[p] = true
			}
			if ref == nil {
				ref, refName = set, col.name
				continue
			}
			if len(set) != len(ref) {
				t.Errorf("view %d: %s delivered %d msgs, %s delivered %d (virtual synchrony violated)",
					seq, col.name, len(set), refName, len(ref))
				continue
			}
			for p := range ref {
				if !set[p] {
					t.Errorf("view %d: %s missing %q that %s delivered", seq, col.name, p, refName)
				}
			}
		}
	}
}

func TestLeaveInstallsSmallerView(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 19, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps, groups, cols := buildGroup(t, net, 3, vsStack)

	net.At(net.Now(), func() { groups[2].Leave() })
	net.RunFor(3 * time.Second)

	for _, col := range cols[:2] {
		v := col.lastView()
		if v == nil || v.Size() != 2 {
			t.Fatalf("%s: view %v after leave, want 2 members", col.name, v)
		}
		if v.Contains(eps[2].ID()) {
			t.Errorf("%s: departed member still in view %v", col.name, v)
		}
	}
}

func TestPartitionFormsIndependentViews(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 23, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps, groups, cols := buildGroup(t, net, 4, vsStack)

	net.Partition(
		[]core.EndpointID{eps[0].ID(), eps[1].ID()},
		[]core.EndpointID{eps[2].ID(), eps[3].ID()},
	)
	net.RunFor(3 * time.Second)

	// Each side converges on a two-member view of itself.
	for i, col := range cols {
		v := col.lastView()
		if v == nil || v.Size() != 2 {
			t.Fatalf("%s: view %v under partition, want 2 members", col.name, v)
		}
		other := eps[(i/2)*2+(1-(i%2))].ID()
		if !v.Contains(other) {
			t.Errorf("%s: partition peer %v missing from view %v", col.name, other, v)
		}
	}

	// Heal and merge the sides back together manually (the MERGE
	// layer automates this; tested separately).
	net.Heal()
	net.At(net.Now()+50*time.Millisecond, func() {
		groups[2].Merge(eps[0].ID())
	})
	net.RunFor(3 * time.Second)

	for _, col := range cols {
		v := col.lastView()
		if v == nil || v.Size() != 4 {
			t.Fatalf("%s: view %v after heal+merge, want 4 members", col.name, v)
		}
	}
}

// TestCastsDuringFlushAreDeferred checks that messages cast while a
// view change is in progress appear in the next view, not the old one.
func TestCastsDuringFlushAreDeferred(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 29, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps, groups, cols := buildGroup(t, net, 3, vsStack)

	oldSeq := cols[0].lastView().ID.Seq
	base := net.Now()
	net.At(base, func() { net.Crash(eps[2].ID()) })
	// Cast from A while the crash is being detected and flushed.
	net.At(base+150*time.Millisecond, func() {
		groups[0].Cast(message.New([]byte("during")))
	})
	net.RunFor(3 * time.Second)

	for _, col := range cols[:2] {
		v := col.lastView()
		if v == nil || v.Size() != 2 {
			t.Fatalf("%s: final view %v", col.name, v)
		}
		total := 0
		for _, msgs := range col.casts {
			for _, p := range msgs {
				if p == "during" {
					total++
				}
			}
		}
		if total != 1 {
			t.Errorf("%s: %q delivered %d times, want once", col.name, "during", total)
		}
	}
	_ = oldSeq
}

// TestExternalFlushDowncall drives membership from the application:
// the flush downcall with an explicit failed list removes a member
// without waiting for failure detection.
func TestExternalFlushDowncall(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 31, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps, groups, cols := buildGroup(t, net, 3, vsStack)

	net.At(net.Now(), func() {
		net.Crash(eps[2].ID())
		groups[0].Flush([]core.EndpointID{eps[2].ID()})
	})
	// The explicit flush should settle well before NAK-based suspicion
	// (6 periods x 20ms = 120ms) would fire.
	net.RunFor(100 * time.Millisecond)

	for _, col := range cols[:2] {
		v := col.lastView()
		if v == nil || v.Size() != 2 {
			t.Fatalf("%s: view %v shortly after explicit flush, want 2 members", col.name, v)
		}
	}
}

// A merge request seals nothing: until the flush it leads to begins, the
// requester's view is current, so a cast made while the request is
// outstanding is delivered in that view. Parked instead, it would carry
// the order TOTAL stamped in the old view into the merged one, where
// the stamp collides with the merged view's own.
func TestCastWhileMergeRequestedStaysInItsView(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 3, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	mkStack := func() core.StackSpec {
		return core.StackSpec{
			total.New,
			mbrship.NewWith(mbrship.WithGossipPeriod(40*time.Millisecond), mbrship.WithManualMergeGrant()),
			nak.NewWith(nak.WithStatusPeriod(20 * time.Millisecond)),
			com.New,
		}
	}
	epA, epB := net.NewEndpoint("a"), net.NewEndpoint("b")
	var ga *core.Group
	ca := newVSCollector("a")
	var pending core.EndpointID
	ga, err := epA.Join("grp", mkStack(), func(ev *core.Event) {
		if ev.Type == core.UMergeRequest {
			pending = ev.Contact // answered later: the request stays outstanding
			return
		}
		ca.handler()(ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	cb := newVSCollector("b")
	gb, err := epB.Join("grp", mkStack(), cb.handler())
	if err != nil {
		t.Fatal(err)
	}
	net.At(50*time.Millisecond, func() { gb.Merge(epA.ID()) })
	net.At(100*time.Millisecond, func() { gb.Cast(message.New([]byte("early"))) })
	net.At(150*time.Millisecond, func() { ga.MergeGranted(pending) })
	net.At(600*time.Millisecond, func() { gb.Cast(message.New([]byte("late"))) })
	net.RunFor(time.Second)

	if v := cb.lastView(); v == nil || v.Size() != 2 {
		t.Fatalf("merge did not complete: %v", cb.lastView())
	}
	first := cb.views[0].ID.Seq
	if got := fmt.Sprint(cb.casts[first]); got != "[early]" {
		t.Errorf("b delivered %s in its own view, want [early]", got)
	}
	merged := cb.lastView().ID.Seq
	for _, c := range []*vsCollector{ca, cb} {
		if got := fmt.Sprint(c.casts[merged]); got != "[late]" {
			t.Errorf("%s delivered %s in the merged view, want [late]", c.name, got)
		}
	}
}
