package chaosnet

import (
	"sync"
	"testing"
	"time"

	"horus/internal/netsim"
)

// TestFiredTimersAreNotTracked: the fabric remembers a timer only while
// it is armed. A UDP chaos run arms one per workload tick and one per
// held frame; remembering them all until Close grew without bound.
func TestFiredTimersAreNotTracked(t *testing.T) {
	f, na, nb := twoNodes(t, 21)
	tracked := func() int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.timers)
	}

	const n = 10000
	var fired sync.WaitGroup
	fired.Add(n)
	for i := 0; i < n; i++ {
		f.At(0, fired.Done)
	}
	fired.Wait()
	if got := tracked(); got != 0 {
		t.Fatalf("%d timers still tracked after all %d fired", got, n)
	}

	// A reorder hold's backstop is the other timer the fabric arms.
	f.SetLinkDirected(na.id, nb.id, netsim.Link{ReorderRate: 1, ReorderHold: 5 * time.Millisecond})
	f.route(nb, na.real.String(), []byte{0, 0, 'x'})
	if got := tracked(); got != 1 {
		t.Fatalf("%d timers tracked while one frame is held, want 1", got)
	}
	waitFor(t, func() bool { return f.Stats().Forwarded == 1 })
	if got := tracked(); got != 0 {
		t.Fatalf("%d timers still tracked after the hold expired", got)
	}

	// What is still armed at Close is stopped, not run.
	f.At(f.Now()+time.Hour, func() { t.Error("a timer armed for an hour from now ran") })
	if got := tracked(); got != 1 {
		t.Fatalf("%d timers tracked with one armed, want 1", got)
	}
}
