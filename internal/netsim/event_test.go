package netsim

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"horus/internal/core"
)

// TestPacketEventAllocatesNothing pins the simulator's own share of the
// receive path: a delivery is a recycled event carrying data, not a
// fresh event and a closure, so once the free list is primed a packet
// crosses netsim without touching the allocator. Timers and scripted
// callbacks reuse the same events. The endpoints have
// joined no group: Deliver drops the packet at the door, which leaves
// only netsim's work in the measurement.
func TestPacketEventAllocatesNothing(t *testing.T) {
	n := New(Config{Seed: 1, DefaultLink: Link{Delay: time.Millisecond}})
	a, b := n.NewEndpoint("a").ID(), n.NewEndpoint("b").ID()
	buf := make([]byte, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		n.mu.Lock()
		n.transmitLocked(n.end(a), n.end(b), pair{a, b}, nil, "g", buf)
		n.mu.Unlock()
		if !n.Step() {
			t.Fatal("no event to run")
		}
	}); allocs != 0 {
		t.Errorf("packet event: %v allocations, want 0", allocs)
	}

	// Through Send the fan-out costs nothing either, however many
	// destinations there are: every delivery hands on the buffer Send
	// was given, and the deliveries after the first ride in its heap
	// slot as links between recycled events.
	dests := []core.EndpointID{a, b}
	for i := 0; i < 13; i++ {
		dests = append(dests, n.NewEndpoint(fmt.Sprint("r", i)).ID())
	}
	want := 101
	for _, k := range []int{3, 15} {
		if allocs := testing.AllocsPerRun(100, func() {
			n.Send(a, "g", dests[:k], buf)
			for n.Step() {
			}
		}); allocs != 0 {
			t.Errorf("Send to %d destinations: %v allocations, want 0", k, allocs)
		}
		// AllocsPerRun runs its function once more than asked, to warm up.
		want += k * 101
		if st := n.Stats(); st.Delivered != want {
			t.Fatalf("delivered %d packets, want %d: the measured loops did not deliver", st.Delivered, want)
		}
	}

	// Callbacks ride the same recycled events. A timer armed by handle
	// costs nothing, one armed through SetTimer its cancel func alone
	// (what core's adapter pays per arm), and a scripted action nothing.
	fired := 0
	fire := func() { fired++ }
	if allocs := testing.AllocsPerRun(100, func() {
		n.ArmTimer(time.Millisecond, fire)
		n.Step()
	}); allocs != 0 {
		t.Errorf("ArmTimer arm and fire: %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		n.SetTimer(time.Millisecond, fire)
		n.Step()
	}); allocs != 1 {
		t.Errorf("SetTimer arm and fire: %v allocations, want 1 (the cancel func)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		n.At(n.Now()+time.Millisecond, fire)
		n.Step()
	}); allocs != 0 {
		t.Errorf("At: %v allocations, want 0", allocs)
	}
	if fired != 3*101 {
		t.Fatalf("%d callbacks ran, want %d: the measured loops did not fire", fired, 3*101)
	}
}

// TestStaleTimerCancelHitsNoReusedEvent: every event goes back to the
// free list once popped, so a timer's handle, and the cancel func
// SetTimer wraps around one, can outlive its event's turn. The event's
// generation makes cancelling such a handle a no-op: whether it was
// cancelled once already or kept past its fire, cancelled after the
// event has come back as a packet delivery or as another timer, it
// must reach neither.
func TestStaleTimerCancelHitsNoReusedEvent(t *testing.T) {
	n := New(Config{Seed: 1})
	a, b := n.NewEndpoint("a").ID(), n.NewEndpoint("b").ID()

	// A spent timer's event comes back as a packet.
	fired := 0
	spentH := n.ArmTimer(time.Millisecond, func() { fired++ })
	n.RunFor(2 * time.Millisecond)
	spent := n.SetTimer(time.Millisecond, func() { fired++ })
	n.RunFor(2 * time.Millisecond)
	if fired != 2 {
		t.Fatalf("timers fired %d times, want 2", fired)
	}
	n.Send(a, "g", []core.EndpointID{b}, []byte{0, 0, 0, 0})
	n.CancelTimer(spentH)
	spent()
	n.RunFor(time.Millisecond)
	if st := n.Stats(); st.Delivered != 1 {
		t.Fatalf("delivered %d packets, want 1: a spent timer's cancel hit a live packet event", st.Delivered)
	}

	// A cancelled timer's event, once popped, comes back as a timer.
	cancelledH := n.ArmTimer(time.Millisecond, func() { t.Error("cancelled timer fired") })
	n.CancelTimer(cancelledH)
	n.RunFor(2 * time.Millisecond)
	cancelled := n.SetTimer(time.Millisecond, func() { t.Error("cancelled timer fired") })
	cancelled()
	n.RunFor(2 * time.Millisecond)
	live := n.ArmTimer(time.Millisecond, func() { fired++ })
	if live.Ref != cancelledH.Ref {
		t.Fatal("the live timer did not reuse the cancelled timer's event")
	}
	n.CancelTimer(cancelledH)
	n.CancelTimer(spentH)
	cancelled()
	spent()
	n.RunFor(2 * time.Millisecond)
	if fired != 3 {
		t.Fatalf("timers fired %d times, want 3: a stale cancel hit a live timer event", fired)
	}
	if got := len(n.free); got != 1 {
		t.Errorf("free list holds %d events, want the one every event above reused", got)
	}
}

// TestEventFitsItsSizeClass pins the event record to the allocator's
// 80-byte class: the generation stamp sits in the padding beside
// cancelled, and the (at, seq) key lives in the heap slot, which leaves
// room for the run link.
func TestEventFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 72 {
		t.Errorf("event is %d bytes, want 72 (80-byte class)", got)
	}
}

// BenchmarkFanout measures the scheduler per delivery in a steady state
// like the waist's: every 10 µs of virtual time one Send to k receivers
// over 1 ms links and one timer armed for 500 µs, so that about a
// hundred Sends and fifty timers are pending whenever one is popped.
// The receivers have joined no group, which leaves netsim's own work.
func BenchmarkFanout(b *testing.B) {
	for _, k := range []int{1, 3, 15} {
		b.Run(fmt.Sprintf("receivers=%d", k), func(b *testing.B) {
			n := New(Config{Seed: 1, DefaultLink: Link{Delay: time.Millisecond}})
			from := n.NewEndpoint("s").ID()
			dests := make([]core.EndpointID, k)
			for i := range dests {
				dests[i] = n.NewEndpoint(fmt.Sprint("r", i)).ID()
			}
			buf := make([]byte, 64)
			tick := func() {}
			round := func() {
				n.Send(from, "g", dests, buf)
				n.ArmTimer(500*time.Microsecond, tick)
				n.RunFor(10 * time.Microsecond)
			}
			for i := 0; i < 200; i++ {
				round()
			}
			before := n.Stats().Delivered
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n.Stats().Delivered-before), "ns/delivery")
		})
	}
}
