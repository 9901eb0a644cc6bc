package netsim_test

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"horus/internal/chaosnet"
	"horus/internal/core"
	"horus/internal/netsim"
)

// carrierRig is one fabric booted for the Carrier contract: its rule
// table, a sender a and a receiver b on group "g", and the fabric's own
// ways to crash a member and to let time pass.
type carrierRig struct {
	rules *netsim.Rules
	a, b  *core.Endpoint
	got   *rawLayer // b's receipts, in delivery order
	crash func(core.EndpointID)
	pass  func(time.Duration)
}

// newRig attaches a then b to fab, in that order on every fabric.
func newRig(t *testing.T, fab interface{ NewEndpoint(string) *core.Endpoint }, rules *netsim.Rules,
	crash func(core.EndpointID), pass func(time.Duration)) *carrierRig {
	r := &carrierRig{rules: rules, crash: crash, pass: pass}
	r.a, _ = attach(t, fab, "a")
	r.b, r.got = attach(t, fab, "b")
	return r
}

// send unicasts each body from a to b, in order.
func (r *carrierRig) send(bodies ...string) {
	for _, body := range bodies {
		send(r.a, body, r.b.ID())
	}
}

// await lets fabric time pass until cond holds, failing after two
// seconds of it.
func (r *carrierRig) await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for waited := time.Duration(0); !cond(); waited += time.Millisecond {
		if waited > 2*time.Second {
			t.Fatalf("%s: not reached within 2s (b got %v, ledger %+v)", what, r.got.received(), r.rules.Stats())
		}
		r.pass(time.Millisecond)
	}
}

// received waits for b to hold n packets.
func (r *carrierRig) received(t *testing.T, n int) []string {
	t.Helper()
	r.await(t, fmt.Sprintf("%d deliveries", n), func() bool { return len(r.got.received()) >= n })
	return r.got.received()
}

// TestCarrierContract runs one table against each fabric that hands its
// packets to Rules: the simulator and the UDP proxies. TestRulesPipeline pins what Rules decides with a recording
// carrier; this pins that each real carrier delivers those decisions to
// the receiving endpoint — in emit order, released holds included.
func TestCarrierContract(t *testing.T) {
	fabrics := []struct {
		name string
		boot func(t *testing.T) *carrierRig
	}{
		{"netsim", func(t *testing.T) *carrierRig {
			n := netsim.New(netsim.Config{Seed: 1})
			return newRig(t, n, n.Rules, n.Crash, n.RunFor)
		}},
		{"chaosnet", func(t *testing.T) *carrierRig {
			f := chaosnet.New(chaosnet.Config{Seed: 1})
			t.Cleanup(f.Close)
			return newRig(t, f, f.Rules, f.Crash, time.Sleep)
		}},
	}

	const ms = time.Millisecond
	rows := []struct {
		name string
		run  func(t *testing.T, r *carrierRig)
	}{
		{"a perfect link delivers in send order", func(t *testing.T, r *carrierRig) {
			var want []string
			for i := 0; i < 20; i++ {
				want = append(want, strconv.Itoa(i))
			}
			r.send(want...)
			if got := r.received(t, len(want)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("b got %v, want %v", got, want)
			}
		}},
		{"a hold is overtaken by exactly ReorderDepth later frames", func(t *testing.T, r *carrierRig) {
			r.rules.SetLinkDirected(r.a.ID(), r.b.ID(), netsim.Link{ReorderRate: 1, ReorderDepth: 2})
			r.send("1")
			r.await(t, "the hold", func() bool { return r.rules.Stats().Reordered == 1 })
			// Disarmed, so the followers depart and count against the hold.
			r.rules.ClearLink(r.a.ID(), r.b.ID())
			r.send("2", "3", "4")
			want := []string{"2", "3", "1", "4"}
			if got := r.received(t, len(want)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("b got %v, want %v", got, want)
			}
		}},
		{"a hold toward a member that crashed meanwhile is Blocked", func(t *testing.T, r *carrierRig) {
			r.rules.SetLinkDirected(r.a.ID(), r.b.ID(), netsim.Link{ReorderRate: 1, ReorderHold: 20 * ms})
			r.send("x")
			r.await(t, "the hold", func() bool { return r.rules.Stats().Reordered == 1 })
			r.crash(r.b.ID())
			r.await(t, "the block", func() bool { return r.rules.Stats().Blocked == 1 })
			if got := r.got.received(); len(got) != 0 {
				t.Fatalf("crashed b got %v", got)
			}
		}},
		{"a hold backstop fires once", func(t *testing.T, r *carrierRig) {
			r.rules.SetLinkDirected(r.a.ID(), r.b.ID(), netsim.Link{ReorderRate: 1, ReorderDepth: 5, ReorderHold: 20 * ms})
			r.send("q")
			r.received(t, 1)
			r.pass(100 * ms)
			if got, st := r.got.received(), r.rules.Stats(); len(got) != 1 || st.Reordered != 1 {
				t.Fatalf("b got %v with %d holds, want [q] once from one hold", got, st.Reordered)
			}
		}},
	}

	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) { row.run(t, fab.boot(t)) })
			}
		})
	}
}
