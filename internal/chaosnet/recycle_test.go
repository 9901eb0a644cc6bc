package chaosnet_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"horus/internal/chaosnet"
	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
)

// TestLentRecordsRecycleOverReorderingFabric: two endpoints cast to each
// other over NAK:COM through proxies that hold back a third of the
// frames, so NAK parks many arrivals behind gaps and passes them up in
// records lent from the endpoint's free list (core.Context.UpParked),
// while the reader goroutines take records from the same list for what
// arrives meanwhile. Every cast arrives once, in order, with its body,
// and every tenth one, which the handler holds (core.Group.Hold), still
// reads as it arrived after all the later ones have run. CI runs it
// under the race detector, several times.
func TestLentRecordsRecycleOverReorderingFabric(t *testing.T) {
	const (
		casts  = 300
		window = 32 // casts ahead of the peer's deliveries
	)
	f := chaosnet.New(chaosnet.Config{Seed: 1, DefaultLink: netsim.Link{
		ReorderRate: 0.3, ReorderDepth: 2, ReorderHold: 5 * time.Millisecond,
	}})
	defer f.Close()
	eps := []*core.Endpoint{f.NewEndpoint("a"), f.NewEndpoint("b")}
	ids := []core.EndpointID{eps[0].ID(), eps[1].ID()}

	type receiver struct {
		mu        sync.Mutex
		delivered atomic.Int64
		kept      []*core.Event
		errs      []string
	}
	rxs := make([]*receiver, len(eps))
	groups := make([]*core.Group, len(eps))
	for i, ep := range eps {
		t.Cleanup(ep.Destroy)
		rx, from := &receiver{}, ids[1-i]
		var g *core.Group
		g, err := ep.Join("grp", core.StackSpec{nak.NewWith(nak.WithStatusPeriod(10 * time.Millisecond)), com.New},
			func(ev *core.Event) {
				if ev.Type != core.UCast || ev.Source != from {
					return // its own casts come back too
				}
				rx.mu.Lock()
				defer rx.mu.Unlock()
				n := rx.delivered.Load()
				if want := fmt.Sprintf("%s-%d", from.Site, n); string(ev.Msg.Body()) != want {
					rx.errs = append(rx.errs, fmt.Sprintf("got %q, want %q", ev.Msg.Body(), want))
				}
				if n%10 == 0 {
					g.Hold(ev)
					rx.kept = append(rx.kept, ev)
				}
				rx.delivered.Add(1)
			})
		if err != nil {
			t.Fatal(err)
		}
		rxs[i], groups[i] = rx, g
	}
	view := core.NewView(core.ViewID{Seq: 1, Coord: ids[0]}, "grp", ids)
	for _, g := range groups {
		g.InstallView(view)
	}

	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func(g *core.Group, site string, peer *receiver) {
			defer wg.Done()
			deadline := time.Now().Add(10 * time.Second)
			for n := int64(0); n < casts; {
				if n-peer.delivered.Load() >= window {
					if time.Now().After(deadline) {
						return
					}
					runtime.Gosched()
					continue
				}
				g.Cast(message.New([]byte(fmt.Sprintf("%s-%d", site, n))))
				n++
			}
		}(g, ids[i].Site, rxs[1-i])
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for rxs[0].delivered.Load() < casts || rxs[1].delivered.Load() < casts {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d and %d of %d casts", rxs[0].delivered.Load(), rxs[1].delivered.Load(), casts)
		}
		time.Sleep(time.Millisecond)
	}
	for i, rx := range rxs {
		rx.mu.Lock()
		for _, e := range rx.errs {
			t.Errorf("at %s: %s", ids[i].Site, e)
		}
		for k, ev := range rx.kept {
			from := ids[1-i]
			if want := fmt.Sprintf("%s-%d", from.Site, 10*k); ev.Type != core.UCast || ev.Source != from || string(ev.Msg.Body()) != want {
				t.Errorf("at %s: held cast %d reads %v %q from %s, want CAST %q from %s",
					ids[i].Site, k, ev.Type, ev.Msg.Body(), ev.Source, want, from)
			}
		}
		rx.mu.Unlock()
	}
	// The fabric reordered, so NAK parked and drained: read its count on
	// the endpoint's queue, which a reader may be draining.
	for i, g := range groups {
		parked := make(chan int, 1)
		eps[i].Do(func() { parked <- g.Focus("NAK").(*nak.Nak).Stats().OutOfOrder })
		select {
		case n := <-parked:
			if n == 0 {
				t.Errorf("at %s: NAK parked nothing, so no record was lent", ids[i].Site)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("at %s: the event queue did not run a query", ids[i].Site)
		}
	}
	if f.Stats().Reordered == 0 {
		t.Fatal("the fabric held back no frame")
	}
}
