package integration

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/frag"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/layers/total"
	"horus/internal/message"
	"horus/internal/netsim"
)

// totalStack is the paper's §7 example stack:
// TOTAL:MBRSHIP:FRAG:NAK:COM (ATM is played by netsim).
func totalStack() core.StackSpec {
	return core.StackSpec{
		total.NewWith(total.WithRequestRetry(50 * time.Millisecond)),
		mbrship.NewWith(
			mbrship.WithGossipPeriod(40*time.Millisecond),
			mbrship.WithFlushTimeout(500*time.Millisecond),
		),
		frag.NewWithSize(512),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithNakResend(15*time.Millisecond),
			nak.WithSuspectAfter(6),
		),
		com.New,
	}
}

// allCasts flattens a collector's deliveries across views in arrival
// order.
func allCasts(c *vsCollector) []string {
	var out []string
	for _, v := range c.views {
		out = append(out, c.casts[v.ID.Seq]...)
	}
	return out
}

func TestTotalOrderConcurrentSenders(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 41, DefaultLink: netsim.Link{
		Delay:    time.Millisecond,
		Jitter:   4 * time.Millisecond,
		LossRate: 0.05,
	}})
	_, groups, cols := buildGroup(t, net, 3, totalStack)

	base := net.Now()
	const n = 45
	for i := 0; i < n; i++ {
		i := i
		net.At(base+time.Duration(i)*3*time.Millisecond, func() {
			groups[i%3].Cast(message.New([]byte(fmt.Sprintf("m%d-%d", i%3, i))))
		})
	}
	net.RunFor(5 * time.Second)

	ref := allCasts(cols[0])
	if len(ref) != n {
		t.Fatalf("member 0 delivered %d messages, want %d: %v", len(ref), n, ref)
	}
	for _, c := range cols[1:] {
		got := allCasts(c)
		if len(got) != len(ref) {
			t.Fatalf("%s delivered %d messages, member a delivered %d", c.name, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: position %d = %q, member a has %q (total order violated)\n a: %v\n %s: %v",
					c.name, i, got[i], ref[i], ref, c.name, got)
			}
		}
	}
}

// TestTotalOrderAcrossViewChange crashes the initial token holder
// (the lowest-ranked member) mid-stream. Liveness must come back via
// the view change, and the survivors' delivery sequences must stay
// identical — the paper's argument for why TOTAL needs no failure
// detector of its own.
func TestTotalOrderAcrossViewChange(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 43, DefaultLink: netsim.Link{
		Delay:  time.Millisecond,
		Jitter: 2 * time.Millisecond,
	}})
	eps, groups, cols := buildGroup(t, net, 4, totalStack)

	holderID := cols[0].lastView().Members[0]
	holderIdx := -1
	for i, ep := range eps {
		if ep.ID() == holderID {
			holderIdx = i
		}
	}
	if holderIdx == -1 {
		t.Fatal("initial holder not found")
	}

	base := net.Now()
	const n = 40
	for i := 0; i < n; i++ {
		i := i
		net.At(base+time.Duration(i)*4*time.Millisecond, func() {
			if i%4 == holderIdx {
				return // the crashed member does not cast
			}
			groups[i%4].Cast(message.New([]byte(fmt.Sprintf("m%d-%d", i%4, i))))
		})
	}
	net.At(base+60*time.Millisecond, func() { net.Crash(holderID) })
	net.RunFor(6 * time.Second)

	var ref []string
	var refName string
	for i, c := range cols {
		if i == holderIdx {
			continue
		}
		v := c.lastView()
		if v == nil || v.Size() != 3 {
			t.Fatalf("%s: final view %v, want 3 survivors", c.name, v)
		}
		got := allCasts(c)
		// Every survivor's casts must arrive: 30 messages total.
		if len(got) != 30 {
			t.Errorf("%s: delivered %d messages, want 30: %v", c.name, len(got), got)
		}
		seen := map[string]bool{}
		for _, p := range got {
			if seen[p] {
				t.Errorf("%s: duplicate delivery %q", c.name, p)
			}
			seen[p] = true
		}
		if ref == nil {
			ref, refName = got, c.name
			continue
		}
		for j := 0; j < len(ref) && j < len(got); j++ {
			if got[j] != ref[j] {
				t.Fatalf("%s: position %d = %q, %s has %q (total order violated across view change)",
					c.name, j, got[j], refName, ref[j])
			}
		}
	}
}

// TestTokenParksWithSoleSender checks the oracle's happy case: with a
// single active sender the token stays put and no per-message token
// traffic is needed (the paper's "comes close in many cases").
func TestTokenParksWithSoleSender(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 47, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	_, groups, cols := buildGroup(t, net, 3, totalStack)

	// Sender = the current token holder's group.
	holderID := cols[0].lastView().Members[0]
	var hg *core.Group
	for i, g := range groups {
		if g.Endpoint().ID() == holderID {
			hg = groups[i]
		}
	}
	if hg == nil {
		t.Fatal("holder group not found")
	}
	base := net.Now()
	for i := 0; i < 20; i++ {
		i := i
		net.At(base+time.Duration(i)*2*time.Millisecond, func() {
			hg.Cast(message.New([]byte(fmt.Sprintf("m%d", i))))
		})
	}
	net.RunFor(2 * time.Second)

	tl := hg.Focus("TOTAL").(*total.Total)
	if !tl.Holder() {
		t.Error("sole sender lost the token")
	}
	if ops := tl.Stats().TokenOps; ops != 0 {
		t.Errorf("sole sender passed the token %d times, want 0", ops)
	}
	for _, c := range cols {
		if got := len(allCasts(c)); got != 20 {
			t.Errorf("%s delivered %d messages, want 20", c.name, got)
		}
	}
}
