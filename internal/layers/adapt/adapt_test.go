package adapt_test

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/adapt"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/netsim"
)

func harness(t *testing.T, opts ...adapt.Option) (*layertest.Harness, *adapt.Adapt, core.EndpointID) {
	t.Helper()
	h := layertest.New(t, adapt.NewWith(opts...))
	peer := layertest.ID("p", 2)
	h.InstallView(h.Self(), peer)
	layer := h.G.Focus("ADAPT").(*adapt.Adapt)
	return h, layer, peer
}

func cast(i int) *core.Event {
	return core.NewCast(message.New([]byte(fmt.Sprintf("m%d", i))))
}

func TestOpenIsPassThrough(t *testing.T) {
	h, layer, _ := harness(t)
	for i := 0; i < 5; i++ {
		h.InjectDown(cast(i))
	}
	if got := len(h.DownOfType(core.DCast)); got != 5 {
		t.Fatalf("%d casts launched while fully open, want 5", got)
	}
	if s := layer.Stats(); s.Throttled != 0 || s.Shed != 0 {
		t.Fatalf("open layer touched traffic: %+v", s)
	}
	if layer.Level() != 1 {
		t.Fatalf("level = %v, want 1", layer.Level())
	}
}

func TestSuspicionThrottlesAndRetractionRestores(t *testing.T) {
	h, layer, peer := harness(t)
	// The detector below reports the peer deep in suspicion.
	h.InjectUp(&core.Event{Type: core.USuspect, Source: peer, Detail: &core.Detail{Phi: 9}})
	// The signal must also keep travelling up.
	if got := len(h.UpOfType(core.USuspect)); got != 1 {
		t.Fatalf("SUSPECT upcalls passed through = %d, want 1", got)
	}
	for i := 0; i < 10; i++ {
		h.InjectDown(cast(i))
	}
	if got := len(h.DownOfType(core.DCast)); got != 0 {
		t.Fatalf("%d casts launched against a φ=9 destination, want 0 before ticks", got)
	}
	if layer.Stats().Throttled != 10 {
		t.Fatalf("Throttled = %d, want 10", layer.Stats().Throttled)
	}
	h.Run(60 * time.Millisecond)
	during := len(h.DownOfType(core.DCast))
	if during == 10 {
		t.Fatal("all casts launched while throttled; expected pacing")
	}
	// The peer speaks again: the detector retracts.
	h.InjectUp(&core.Event{Type: core.USuspect, Source: peer, Detail: &core.Detail{Phi: 0}})
	h.Run(2 * time.Second)
	got := h.DownOfType(core.DCast)
	if len(got) != 10 {
		t.Fatalf("%d casts after retraction and recovery, want 10", len(got))
	}
	for i, ev := range got {
		if want := fmt.Sprintf("m%d", i); string(ev.Msg.Body()) != want {
			t.Fatalf("pacing reordered casts: %q at position %d", ev.Msg.Body(), i)
		}
	}
	if layer.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", layer.QueueLen())
	}
}

func TestViewRemovalStopsThrottling(t *testing.T) {
	h, layer, peer := harness(t)
	h.InjectUp(&core.Event{Type: core.USuspect, Source: peer, Detail: &core.Detail{Phi: 9}})
	for i := 0; i < 6; i++ {
		h.InjectDown(cast(i))
	}
	if len(h.DownOfType(core.DCast)) != 0 {
		t.Fatal("casts launched against a suspected destination")
	}
	// Membership excludes the suspect: its φ is moot, full rate returns.
	other := layertest.ID("q", 3)
	h.InstallView(h.Self(), other)
	h.Run(2 * time.Second)
	if got := len(h.DownOfType(core.DCast)); got != 6 {
		t.Fatalf("%d casts after the suspect left the view, want 6", got)
	}
	if layer.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", layer.QueueLen())
	}
}

func TestShedsLowestPriorityFirst(t *testing.T) {
	h, layer, peer := harness(t, adapt.WithQueueCap(4))
	h.InjectUp(&core.Event{Type: core.USuspect, Source: peer, Detail: &core.Detail{Phi: 9}})
	prios := []int32{3, 0, 2, 3, 1}
	for i, p := range prios {
		ev := cast(i)
		ev.Priority = p
		h.InjectDown(ev)
	}
	if s := layer.Stats(); s.Shed != 1 {
		t.Fatalf("Shed = %d, want 1 (cap 4, 5 queued)", s.Shed)
	}
	if got := len(h.UpOfType(core.ULostMessage)); got != 1 {
		t.Fatalf("LOST_MESSAGE upcalls = %d, want 1", got)
	}
	// Recover and drain: the priority-0 cast (m1) must be the missing one.
	h.InjectUp(&core.Event{Type: core.USuspect, Source: peer, Detail: &core.Detail{Phi: 0}})
	h.Run(2 * time.Second)
	var bodies []string
	for _, ev := range h.DownOfType(core.DCast) {
		bodies = append(bodies, string(ev.Msg.Body()))
	}
	want := []string{"m0", "m2", "m3", "m4"}
	if len(bodies) != len(want) {
		t.Fatalf("launched %v, want %v", bodies, want)
	}
	for i := range want {
		if bodies[i] != want[i] {
			t.Fatalf("launched %v, want %v", bodies, want)
		}
	}
}

func TestCollapseFeedbackDecreasesAndRecovers(t *testing.T) {
	h, layer, _ := harness(t)
	// Give the harness host a tight egress budget and burn through it
	// with raw traffic to a second attached endpoint: the fabric ledger
	// the layer polls is the real one.
	sink := h.Net.NewEndpoint("sink")
	h.Net.SetHost(h.Self(), netsim.Host{EgressBudget: 1000, EgressQueue: 200})
	frame := make([]byte, 100)
	for i := 0; i < 30; i++ {
		h.Net.Send(h.Self(), "test", []core.EndpointID{sink.ID()}, frame)
	}
	if fb := h.Net.EgressFeedback(h.Self()); fb.CollapseDropped == 0 {
		t.Fatalf("test setup: expected collapse drops, got %+v", fb)
	}
	h.Run(15 * time.Millisecond) // one control tick sees the drops
	if layer.Level() >= 1 {
		t.Fatalf("level = %v after collapse drops, want < 1", layer.Level())
	}
	if layer.Stats().Decreases == 0 {
		t.Fatal("no multiplicative decrease recorded")
	}
	// Throttled now: new casts queue instead of passing through.
	h.InjectDown(cast(0))
	if layer.Stats().Throttled != 1 {
		t.Fatalf("Throttled = %d, want 1", layer.Stats().Throttled)
	}
	// Quiet network: additive increase restores full rate and drains.
	h.Run(3 * time.Second)
	if layer.Level() != 1 {
		t.Fatalf("level = %v after recovery, want 1", layer.Level())
	}
	if got := len(h.DownOfType(core.DCast)); got != 1 {
		t.Fatalf("%d casts drained after recovery, want 1", got)
	}
}
