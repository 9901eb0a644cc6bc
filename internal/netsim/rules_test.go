package netsim

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"horus/internal/core"
)

// fakeCarrier is a fabric reduced to what Rules asks of one: a clock
// the test moves by hand, a list of what was emitted, and the armed
// backstops, which advance fires when their time comes.
type fakeCarrier struct {
	now   time.Duration
	emits []emitted
	armed []backstop
}

type emitted struct {
	dst   core.EndpointID
	buf   []byte
	delay time.Duration
}

type backstop struct {
	at time.Duration
	fn func()
}

func (c *fakeCarrier) Clock() time.Duration { return c.now }
func (c *fakeCarrier) Emit(dst core.EndpointID, _ core.GroupAddr, buf []byte, delay time.Duration) {
	c.emits = append(c.emits, emitted{dst, buf, delay})
}
func (c *fakeCarrier) Arm(d time.Duration, fn func()) {
	c.armed = append(c.armed, backstop{c.now + d, fn})
}

func (c *fakeCarrier) advance(d time.Duration) {
	c.now += d
	due := c.armed
	c.armed = nil
	for _, b := range due {
		if b.at <= c.now {
			b.fn()
		} else {
			c.armed = append(c.armed, b)
		}
	}
}

// TestRulesPipeline drives the one fault pipeline with no fabric under
// it — no sockets, no event heap, no wall time — one row per rule. What
// a row pins is what every fabric inherits: netsim, RealTime and the
// UDP proxies all make their fault decisions here.
func TestRulesPipeline(t *testing.T) {
	a := core.EndpointID{Site: "a", Birth: 1}
	b := core.EndpointID{Site: "b", Birth: 2}
	c := core.EndpointID{Site: "c", Birth: 3}
	const ms = time.Millisecond

	// A step sends one packet of size bytes (size > 0), or changes the
	// rule table, or lets time pass.
	type step struct {
		from, dst core.EndpointID
		size      int
		do        func(r *Rules)
		wait      time.Duration
	}
	send := func(from, dst core.EndpointID, size int) step { return step{from: from, dst: dst, size: size} }
	do := func(fn func(r *Rules)) step { return step{do: fn} }
	wait := func(d time.Duration) step { return step{wait: d} }

	// An emit is expected at delay, or anywhere in [delay, delay+jitter).
	// size tells packets apart where the order of emits is the point.
	type emit struct {
		dst     core.EndpointID
		size    int
		delay   time.Duration
		jitter  time.Duration
		garbled bool
	}

	rows := []struct {
		name  string
		def   Link
		steps []step
		emits []emit
		stats Stats
		// feedback, when set, is a's egress ledger at the end of the row.
		feedback *core.EgressFeedback
	}{
		{
			name:  "perfect link",
			steps: []step{send(a, b, 10)},
			emits: []emit{{dst: b, size: 10}},
			stats: Stats{Sent: 1},
		},
		{
			name:  "delay",
			def:   Link{Delay: 5 * ms},
			steps: []step{send(a, b, 10)},
			emits: []emit{{dst: b, size: 10, delay: 5 * ms}},
			stats: Stats{Sent: 1},
		},
		{
			name:  "jitter adds up to Jitter",
			def:   Link{Delay: ms, Jitter: 4 * ms},
			steps: []step{send(a, b, 10), send(a, b, 10), send(a, b, 10)},
			emits: []emit{
				{dst: b, size: 10, delay: ms, jitter: 4 * ms},
				{dst: b, size: 10, delay: ms, jitter: 4 * ms},
				{dst: b, size: 10, delay: ms, jitter: 4 * ms},
			},
			stats: Stats{Sent: 3},
		},
		{
			name:  "loss",
			def:   Link{LossRate: 1},
			steps: []step{send(a, b, 10)},
			stats: Stats{Sent: 1, Lost: 1},
		},
		{
			name:  "dup emits two copies",
			def:   Link{DupRate: 1},
			steps: []step{send(a, b, 10)},
			emits: []emit{{dst: b, size: 10}, {dst: b, size: 10}},
			stats: Stats{Sent: 1, Duplicated: 1},
		},
		{
			name:  "dup is drawn before loss, loss once per copy",
			def:   Link{DupRate: 1, LossRate: 1},
			steps: []step{send(a, b, 10)},
			stats: Stats{Sent: 1, Duplicated: 1, Lost: 2},
		},
		{
			name:  "garble flips one byte of a clone",
			def:   Link{GarbleRate: 1, DupRate: 1},
			steps: []step{send(a, b, 10)},
			emits: []emit{{dst: b, size: 10, garbled: true}, {dst: b, size: 10, garbled: true}},
			stats: Stats{Sent: 1, Duplicated: 1, Garbled: 2},
		},
		{
			name:  "bandwidth serializes a burst",
			def:   Link{Bandwidth: 1000},
			steps: []step{send(a, b, 10), send(a, b, 10), send(a, b, 10), send(a, c, 10)},
			emits: []emit{
				{dst: b, size: 10, delay: 10 * ms},
				{dst: b, size: 10, delay: 20 * ms},
				{dst: b, size: 10, delay: 30 * ms},
				{dst: c, size: 10, delay: 10 * ms}, // its own directed link
			},
			stats: Stats{Sent: 4, Throttled: 2},
		},
		{
			name: "reorder: released by ReorderDepth later departures",
			steps: []step{
				do(func(r *Rules) { r.SetLinkDirected(a, b, Link{ReorderRate: 1, ReorderDepth: 2}) }),
				send(a, b, 1),
				do(func(r *Rules) { r.ClearLink(a, b) }),
				send(a, c, 9), // another link: does not count
				send(a, b, 2),
				send(a, b, 3),
				wait(time.Second), // its backstop finds it gone
			},
			emits: []emit{{dst: c, size: 9}, {dst: b, size: 2}, {dst: b, size: 3}, {dst: b, size: 1}},
			stats: Stats{Sent: 4, Reordered: 1},
		},
		{
			name: "reorder: released by the hold backstop on a quiet link",
			def:  Link{ReorderRate: 1, ReorderDepth: 5, ReorderHold: 30 * ms},
			steps: []step{
				send(a, b, 10),
				wait(29 * ms),
				wait(ms),
				wait(time.Second), // and only once
			},
			emits: []emit{{dst: b, size: 10}},
			stats: Stats{Sent: 1, Reordered: 1},
		},
		{
			name: "a held packet departs under the rules in force at release",
			def:  Link{Delay: ms},
			steps: []step{
				do(func(r *Rules) { r.SetLinkDirected(a, b, Link{Delay: ms, ReorderRate: 1, ReorderHold: 10 * ms}) }),
				send(a, b, 10),
				do(func(r *Rules) { r.SetLinkDirected(a, b, Link{Delay: 9 * ms}) }),
				wait(10 * ms),
			},
			emits: []emit{{dst: b, size: 10, delay: 9 * ms}},
			stats: Stats{Sent: 1, Reordered: 1},
		},
		{
			name: "host egress: one bucket for all links, bounded queue",
			steps: []step{
				do(func(r *Rules) { r.SetHost(a, Host{EgressBudget: 1000, EgressQueue: 25}) }),
				send(a, b, 10), // finds the bucket idle
				send(a, c, 10), // queues behind it
				send(a, b, 10), // 20 queued + 10 > 25: tail drop
				send(a, a, 10), // loopback never crosses the NIC
				send(b, a, 10), // b has no budget
			},
			emits: []emit{
				{dst: b, size: 10, delay: 10 * ms},
				{dst: c, size: 10, delay: 20 * ms},
				{dst: a, size: 10},
				{dst: a, size: 10},
			},
			stats:    Stats{Sent: 5, Congested: 1, CollapseDropped: 1},
			feedback: &core.EgressFeedback{BacklogBytes: 20, Congested: 1, CollapseDropped: 1},
		},
		{
			name: "host egress clears before the link bucket fills",
			def:  Link{Bandwidth: 2000},
			steps: []step{
				do(func(r *Rules) { r.SetHost(a, Host{EgressBudget: 1000}) }),
				send(a, b, 10),
			},
			emits: []emit{{dst: b, size: 10, delay: 15 * ms}}, // 10 ms of NIC, then 5 ms of link
			stats: Stats{Sent: 1},
		},
		{
			name: "SetHost starts from an empty bucket, ClearHost lifts the budget",
			steps: []step{
				do(func(r *Rules) { r.SetHost(a, Host{EgressBudget: 10}) }),
				send(a, b, 10),
				do(func(r *Rules) { r.SetHost(a, Host{EgressBudget: 1000}) }),
				send(a, b, 10),
				do(func(r *Rules) { r.ClearHost(a) }),
				send(a, b, 10),
			},
			emits: []emit{
				{dst: b, size: 10, delay: time.Second},
				{dst: b, size: 10, delay: 10 * ms},
				{dst: b, size: 10},
			},
			stats:    Stats{Sent: 3},
			feedback: &core.EgressFeedback{},
		},
		{
			name: "directed override, symmetric override, default",
			def:  Link{Delay: ms},
			steps: []step{
				do(func(r *Rules) { r.SetLinkDirected(a, b, Link{Delay: 7 * ms}) }),
				send(a, b, 10),
				send(b, a, 10),
				do(func(r *Rules) { r.SetLink(a, b, Link{Delay: 3 * ms}) }),
				send(a, b, 10),
				send(b, a, 10),
				do(func(r *Rules) { r.ClearLink(a, b) }),
				send(a, b, 10),
				do(func(r *Rules) { r.SetDefaultLink(Link{}) }),
				send(a, b, 10),
			},
			emits: []emit{
				{dst: b, size: 10, delay: 7 * ms},
				{dst: a, size: 10, delay: ms},
				{dst: b, size: 10, delay: 3 * ms},
				{dst: a, size: 10, delay: 3 * ms},
				{dst: b, size: 10, delay: ms},
				{dst: b, size: 10},
			},
			stats: Stats{Sent: 6},
		},
		{
			name: "partition and heal",
			steps: []step{
				do(func(r *Rules) { r.Partition([]core.EndpointID{a}, []core.EndpointID{b}) }),
				send(a, b, 10),
				send(a, a, 10),
				send(c, b, 10), // c is in component 0, alone
				do(func(r *Rules) { r.Heal() }),
				send(a, b, 10),
			},
			emits: []emit{{dst: a, size: 10}, {dst: b, size: 10}},
			stats: Stats{Sent: 4, Blocked: 2},
		},
		{
			name: "crash blocks both directions",
			steps: []step{
				do(func(r *Rules) { r.MarkCrashed(b) }),
				send(a, b, 10),
				send(b, a, 10),
				send(a, c, 10),
			},
			emits: []emit{{dst: c, size: 10}},
			stats: Stats{Sent: 3, Blocked: 2},
		},
		{
			name: "a crash is checked again when a held packet departs",
			def:  Link{ReorderRate: 1, ReorderHold: 10 * ms},
			steps: []step{
				send(a, b, 10),
				do(func(r *Rules) { r.MarkCrashed(b) }),
				wait(10 * ms),
			},
			stats: Stats{Sent: 1, Reordered: 1, Blocked: 1},
		},
		{
			name: "forget: held toward it is blocked, held from it is in flight",
			def:  Link{ReorderRate: 1, ReorderHold: 10 * ms},
			steps: []step{
				do(func(r *Rules) { r.SetHost(b, Host{EgressBudget: 1000}) }),
				send(a, b, 1),
				send(b, c, 2),
				do(func(r *Rules) { r.MarkCrashed(b); r.Forget(b) }),
				wait(10 * ms),
			},
			emits: []emit{{dst: c, size: 2}}, // and b's budget is forgotten too
			stats: Stats{Sent: 2, Reordered: 2, Blocked: 1},
		},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var lock sync.Mutex
			out := &fakeCarrier{}
			r := NewRules(&lock, out, 1, row.def)
			var wires [][]byte
			for _, s := range row.steps {
				switch {
				case s.do != nil:
					s.do(r)
				case s.wait != 0:
					out.advance(s.wait)
				default:
					wire := bytes.Repeat([]byte{0xAA}, s.size)
					wires = append(wires, wire)
					lock.Lock()
					r.Route(s.from, s.dst, "g", wire)
					lock.Unlock()
				}
			}

			if len(out.emits) != len(row.emits) {
				t.Fatalf("%d emits %v, want %d", len(out.emits), out.emits, len(row.emits))
			}
			for i, want := range row.emits {
				got := out.emits[i]
				if got.dst != want.dst || len(got.buf) != want.size {
					t.Errorf("emit %d: %d bytes to %v, want %d bytes to %v", i, len(got.buf), got.dst, want.size, want.dst)
				}
				if got.delay < want.delay || got.delay >= want.delay+max(want.jitter, 1) {
					t.Errorf("emit %d: delay %v, want %v (+%v)", i, got.delay, want.delay, want.jitter)
				}
				flipped := 0
				for _, x := range got.buf {
					if x != 0xAA {
						flipped++
					}
				}
				if want.garbled && flipped != 1 || !want.garbled && flipped != 0 {
					t.Errorf("emit %d: %d bytes differ from what was sent, garbled=%v", i, flipped, want.garbled)
				}
			}
			for i, wire := range wires {
				if !bytes.Equal(wire, bytes.Repeat([]byte{0xAA}, len(wire))) {
					t.Errorf("send %d: the sender's buffer was written", i)
				}
			}
			if got := r.Stats(); got != row.stats {
				t.Errorf("ledger %+v, want %+v", got, row.stats)
			}
			if row.feedback != nil {
				if got := r.EgressFeedback(a); got != *row.feedback {
					t.Errorf("a's egress feedback %+v, want %+v", got, *row.feedback)
				}
			}
			if len(out.armed) != 0 {
				t.Errorf("%d backstops still armed", len(out.armed))
			}
		})
	}
}
