package integration

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/bms"
	"horus/internal/layers/com"
	"horus/internal/layers/flush"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/layers/stable"
	"horus/internal/layers/vss"
	"horus/internal/message"
	"horus/internal/netsim"
)

// bmsTimers are the simulation-friendly MBRSHIP timers the BMS stacks
// run.
var bmsTimers = []mbrship.Option{
	mbrship.WithGossipPeriod(40 * time.Millisecond),
	mbrship.WithFlushTimeout(500 * time.Millisecond),
}

// decomposedStack is FLUSH:STABLE:BMS:NAK:COM — the modular
// replacement for the monolithic MBRSHIP (paper §11: Horus separates
// group communication from membership agreement).
func decomposedStack() core.StackSpec {
	return core.StackSpec{
		flush.New,
		stable.New,
		bms.NewWith(bmsTimers...),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithNakResend(15*time.Millisecond),
			nak.WithSuspectAfter(6),
		),
		com.New,
	}
}

// vssStack is VSS:STABLE:BMS:NAK:COM — the sender-driven alternative.
func vssStack() core.StackSpec {
	return core.StackSpec{
		vss.New,
		stable.New,
		bms.NewWith(bmsTimers...),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithNakResend(15*time.Millisecond),
			nak.WithSuspectAfter(6),
		),
		com.New,
	}
}

// runCrashWorkload drives the shared scenario: 4 members, concurrent
// casting, one member crashes mid-stream. Returns the collectors.
func runCrashWorkload(t *testing.T, mk func() core.StackSpec, seed int64) []*ackCollector {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: seed, DefaultLink: netsim.Link{
		Delay:    time.Millisecond,
		Jitter:   2 * time.Millisecond,
		LossRate: 0.05,
	}})
	eps, groups, cols := buildStackGroup(t, net, 4, mk, true)

	base := net.Now()
	for i := 0; i < 32; i++ {
		i := i
		net.At(base+time.Duration(i)*4*time.Millisecond, func() {
			if i%4 == 3 {
				return // the member that will crash stays quiet
			}
			groups[i%4].Cast(message.New([]byte(fmt.Sprintf("m%d-%d", i%4, i))))
		})
	}
	net.At(base+60*time.Millisecond, func() { net.Crash(eps[3].ID()) })
	net.RunFor(6 * time.Second)

	for _, c := range cols[:3] {
		if v := c.group.View(); v == nil || v.Size() != 3 {
			t.Fatalf("%s: survivors did not converge to a 3-member view", c.name)
		}
	}
	return cols
}

// assertIdenticalDeliveries checks that survivors delivered the same
// message sets with no duplicates — virtual synchrony as observed by
// the application.
func assertIdenticalDeliveries(t *testing.T, cols []*ackCollector) {
	t.Helper()
	var ref map[string]bool
	var refName string
	for _, c := range cols[:3] {
		set := map[string]bool{}
		for _, p := range c.casts {
			if set[p] {
				t.Errorf("%s: duplicate delivery %q", c.name, p)
			}
			set[p] = true
		}
		if ref == nil {
			ref, refName = set, c.name
			continue
		}
		for p := range ref {
			if !set[p] {
				t.Errorf("%s missing %q that %s delivered", c.name, p, refName)
			}
		}
		for p := range set {
			if !ref[p] {
				t.Errorf("%s delivered %q that %s did not", c.name, p, refName)
			}
		}
	}
}

// TestDecomposedEqualsMonolithic runs the crash workload over
// BMS+FLUSH and asserts the same virtual-synchrony outcome the
// monolithic MBRSHIP tests assert: identical survivor delivery sets.
func TestDecomposedEqualsMonolithic(t *testing.T) {
	cols := runCrashWorkload(t, decomposedStack, 83)
	assertIdenticalDeliveries(t, cols)
	total := 0
	for _, c := range cols[:3] {
		if len(c.casts) > total {
			total = len(c.casts)
		}
	}
	if total == 0 {
		t.Fatal("no deliveries at all")
	}
}

// TestVSSRecoversSurvivorMessages runs the same workload over VSS.
// Since only surviving members cast, sender-driven recovery must also
// yield identical survivor delivery sets.
func TestVSSRecoversSurvivorMessages(t *testing.T) {
	cols := runCrashWorkload(t, vssStack, 89)
	assertIdenticalDeliveries(t, cols)
}

// TestBMSAloneIsOnlySemiSynchronous demonstrates what BMS does *not*
// give: with auto-consent BMS (no FLUSH above), a message in flight at
// the crash may reach some survivors and not others. We do not assert
// divergence (it is probabilistic); we assert the stack still
// converges on views and delivers FIFO per sender — the P8 contract.
func TestBMSAloneIsOnlySemiSynchronous(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 97, DefaultLink: netsim.Link{
		Delay: time.Millisecond, LossRate: 0.05,
	}})
	mk := func() core.StackSpec {
		return core.StackSpec{
			bms.NewAutoConsent(bmsTimers...),
			nak.NewWith(
				nak.WithStatusPeriod(20*time.Millisecond),
				nak.WithNakResend(15*time.Millisecond),
				nak.WithSuspectAfter(6),
			),
			com.New,
		}
	}
	eps, groups, cols := buildStackGroup(t, net, 3, mk, false)
	base := net.Now()
	for i := 0; i < 20; i++ {
		i := i
		net.At(base+time.Duration(i)*4*time.Millisecond, func() {
			groups[i%2].Cast(message.New([]byte(fmt.Sprintf("m%d-%d", i%2, i))))
		})
	}
	net.At(base+40*time.Millisecond, func() { net.Crash(eps[2].ID()) })
	net.RunFor(5 * time.Second)

	for _, c := range cols[:2] {
		if v := c.group.View(); v == nil || v.Size() != 2 {
			t.Fatalf("%s: no 2-member view after crash", c.name)
		}
		last := map[byte]int{}
		for _, p := range c.casts {
			var sender, seq int
			if _, err := fmt.Sscanf(p, "m%d-%d", &sender, &seq); err != nil {
				t.Fatalf("%s: bad payload %q", c.name, p)
			}
			if prev, ok := last[byte(sender)]; ok && seq <= prev {
				t.Errorf("%s: per-sender FIFO violated: %v", c.name, c.casts)
			}
			last[byte(sender)] = seq
		}
	}
}
