package netsim

import (
	"testing"
	"time"

	"horus/internal/core"
)

// TestPacketEventAllocatesNothing pins the simulator's own share of the
// receive path: a delivery is a recycled event carrying data, not a
// fresh event and a closure, so once the free list is primed a packet
// crosses netsim without touching the allocator. The endpoints have
// joined no group: Deliver drops the packet at the door, which leaves
// only netsim's work in the measurement.
func TestPacketEventAllocatesNothing(t *testing.T) {
	n := New(Config{Seed: 1, DefaultLink: Link{Delay: time.Millisecond}})
	a, b := n.NewEndpoint("a").ID(), n.NewEndpoint("b").ID()
	buf := make([]byte, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		n.mu.Lock()
		n.transmitLocked(a, "g", b, buf)
		n.mu.Unlock()
		if !n.Step() {
			t.Fatal("no event to run")
		}
	}); allocs != 0 {
		t.Errorf("packet event: %v allocations, want 0", allocs)
	}

	// Through Send the fan-out costs its one shared copy, however many
	// destinations there are.
	c := n.NewEndpoint("c").ID()
	dests := []core.EndpointID{a, b, c}
	if allocs := testing.AllocsPerRun(100, func() {
		n.Send(a, "g", dests, buf)
		for n.Step() {
		}
	}); allocs != 1 {
		t.Errorf("Send to three destinations: %v allocations, want 1", allocs)
	}
	// AllocsPerRun runs its function once more than asked, to warm up.
	if st := n.Stats(); st.Delivered != 101+3*101 {
		t.Fatalf("delivered %d packets, want %d: the measured loops did not deliver", st.Delivered, 101+3*101)
	}
}

// TestTimerEventsAreNotRecycled: a timer's cancel func keeps a pointer
// to its event for good, so that event must never come back as a packet
// delivery — a late cancel would silently drop someone's packet.
func TestTimerEventsAreNotRecycled(t *testing.T) {
	n := New(Config{Seed: 1})
	a, b := n.NewEndpoint("a").ID(), n.NewEndpoint("b").ID()
	fired := false
	cancel := n.SetTimer(time.Millisecond, func() { fired = true })
	n.RunFor(2 * time.Millisecond)
	if !fired {
		t.Fatal("timer did not fire")
	}
	n.Send(a, "g", []core.EndpointID{b}, []byte{0, 0, 0, 0})
	cancel() // after the fact: must not reach the packet's event
	n.RunFor(time.Millisecond)
	if st := n.Stats(); st.Delivered != 1 {
		t.Fatalf("delivered %d packets, want 1: a spent timer's cancel hit a live packet event", st.Delivered)
	}
}
