package core_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"horus/internal/core"
)

// lateTransport is a wall-clock transport at its worst: a cancel never
// wins the race with a fire, so every callback SetTimer was given can
// still run, and the test decides when each one runs and how often.
type lateTransport struct {
	now   time.Duration
	fires []func() // every callback armed, in arming order
}

func (*lateTransport) Send(core.EndpointID, core.GroupAddr, []core.EndpointID, []byte) {}

func (f *lateTransport) SetTimer(_ time.Duration, fn func()) func() {
	f.fires = append(f.fires, fn)
	return func() {} // too late: the fire is already on its way
}

func (f *lateTransport) Now() time.Duration { return f.now }

// timed is a layer with one Timer that records when it runs; onFire,
// if set, runs after the record.
type timed struct {
	core.Base
	timer  core.Timer[timed]
	ran    []time.Duration
	onFire func(*timed)
}

func (*timed) Name() string { return "TIMED" }

func (l *timed) Init(c *core.Context) error {
	if err := l.Base.Init(c); err != nil {
		return err
	}
	l.timer.Bind(c, l, (*timed).fire)
	return nil
}

func (l *timed) fire() {
	l.ran = append(l.ran, l.Ctx.Now())
	if l.onFire != nil {
		l.onFire(l)
	}
}

// joinTimed joins a stack of one timed layer over tr.
func joinTimed(t *testing.T, tr core.Transport) (*core.Endpoint, *core.Group, *timed) {
	t.Helper()
	ep := core.NewEndpoint(core.EndpointID{Site: "a", Birth: 1}, tr)
	l := &timed{}
	g, err := ep.Join("g", core.StackSpec{func() core.Layer { return l }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ep, g, l
}

func TestTimerStopDropsAQueuedFire(t *testing.T) {
	tr := &lateTransport{}
	ep, _, l := joinTimed(t, tr)
	ep.Do(func() { l.timer.Reset(10 * time.Millisecond) })
	tr.now = 10 * time.Millisecond
	// The transport queues the fire while a handler is running; the
	// handler stops the Timer before the queue reaches it.
	ep.Do(func() {
		tr.fires[0]()
		l.timer.Stop()
	})
	// And a fire whose cancel lost the race arrives after the Stop.
	tr.fires[0]()
	if len(l.ran) != 0 || l.timer.Armed() {
		t.Fatalf("stopped timer ran %d times (armed %v), want none", len(l.ran), l.timer.Armed())
	}
}

func TestTimerResetSupersedesTheEarlierDeadline(t *testing.T) {
	tr := &lateTransport{}
	ep, _, l := joinTimed(t, tr)
	ep.Do(func() {
		l.timer.Reset(10 * time.Millisecond)
		l.timer.Reset(20 * time.Millisecond)
	})
	if len(tr.fires) != 1 {
		t.Fatalf("%d SetTimer calls, want 1: the 10ms arm serves the later deadline", len(tr.fires))
	}
	tr.now = 10 * time.Millisecond
	tr.fires[0]() // the superseded deadline's fire: it re-arms for 10ms more
	if len(l.ran) != 0 || len(tr.fires) != 2 {
		t.Fatalf("at 10ms: ran at %v after %d SetTimer calls, want no run and a re-arm", l.ran, len(tr.fires))
	}
	tr.now = 20 * time.Millisecond
	tr.fires[1]()
	tr.fires[0]() // delivered late, and twice
	tr.fires[1]()
	if len(l.ran) != 1 || l.ran[0] != 20*time.Millisecond {
		t.Fatalf("ran at %v, want once at 20ms", l.ran)
	}
	if l.timer.Armed() {
		t.Fatal("timer still armed after its fire ran")
	}
}

func TestTimerResetFromItsCallback(t *testing.T) {
	tr := &lateTransport{}
	ep, _, l := joinTimed(t, tr)
	// Reset(0) re-arms for the same instant; the third run stops.
	l.onFire = func(l *timed) {
		if len(l.ran) < 3 {
			l.timer.Reset(0)
		}
	}
	ep.Do(func() { l.timer.Reset(5 * time.Millisecond) })
	tr.now = 5 * time.Millisecond
	for i := 0; i < len(tr.fires); i++ { // each run may arm one more
		tr.fires[i]()
	}
	if want := []time.Duration{5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond}; !slices.Equal(l.ran, want) {
		t.Fatalf("ran at %v, want %v", l.ran, want)
	}
	// A callback re-arming for later waits for that deadline.
	l.onFire = func(l *timed) { l.timer.Reset(time.Millisecond) }
	ep.Do(func() { l.timer.Reset(0) })
	tr.fires[len(tr.fires)-1]()
	tr.fires[len(tr.fires)-1]() // the re-armed fire, a millisecond early
	if len(l.ran) != 4 || !l.timer.Armed() {
		t.Fatalf("ran %d times (armed %v), want 4 and armed for 6ms", len(l.ran), l.timer.Armed())
	}
	tr.now = 6 * time.Millisecond
	tr.fires[len(tr.fires)-1]()
	if len(l.ran) != 5 || l.ran[4] != 6*time.Millisecond {
		t.Fatalf("ran at %v, want a fifth run at 6ms", l.ran)
	}
}

// Stop leaves the transport's arm in place, and a Reset rides it unless
// the new deadline comes before it.

func TestTimerStopThenResetRidesTheOutstandingArm(t *testing.T) {
	tr := &lateTransport{}
	ep, _, l := joinTimed(t, tr)
	ep.Do(func() { l.timer.Reset(10 * time.Millisecond) })
	tr.now = 5 * time.Millisecond
	ep.Do(func() {
		l.timer.Stop()
		l.timer.Reset(10 * time.Millisecond)
	})
	if len(tr.fires) != 1 {
		t.Fatalf("%d SetTimer calls, want 1: Stop leaves the 10ms arm outstanding", len(tr.fires))
	}
	for _, now := range []time.Duration{10 * time.Millisecond, 15 * time.Millisecond} {
		tr.now = now
		for i := 0; i < len(tr.fires); i++ {
			tr.fires[i]()
		}
	}
	if len(l.ran) != 1 || l.ran[0] != 15*time.Millisecond || l.timer.Armed() {
		t.Fatalf("ran at %v (armed %v), want once at 15ms", l.ran, l.timer.Armed())
	}
}

func TestTimerEarlierResetArmsAgain(t *testing.T) {
	tr := &lateTransport{}
	ep, _, l := joinTimed(t, tr)
	ep.Do(func() {
		l.timer.Reset(20 * time.Millisecond)
		l.timer.Reset(10 * time.Millisecond) // earlier: a second arm
		l.timer.Stop()
		l.timer.Reset(10 * time.Millisecond) // rides the second arm
	})
	if len(tr.fires) != 2 {
		t.Fatalf("%d SetTimer calls, want 2: one for 20ms, one for 10ms", len(tr.fires))
	}
	tr.now = 10 * time.Millisecond
	tr.fires[1]()
	tr.now = 20 * time.Millisecond
	tr.fires[0]() // the superseded 20ms arm, whose cancel came too late
	if len(l.ran) != 1 || l.ran[0] != 10*time.Millisecond || l.timer.Armed() || len(tr.fires) != 2 {
		t.Fatalf("ran at %v (armed %v, %d SetTimer calls), want once at 10ms and no re-arm",
			l.ran, l.timer.Armed(), len(tr.fires))
	}
}

func TestTimerOfADestroyedStackNeverRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*core.Endpoint, *core.Group)
	}{
		{"group leaves", func(_ *core.Endpoint, g *core.Group) { g.Leave() }},
		{"endpoint destroyed", func(ep *core.Endpoint, _ *core.Group) { ep.Destroy() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &lateTransport{}
			ep, g, l := joinTimed(t, tr)
			ep.Do(func() { l.timer.Reset(time.Millisecond) })
			tc.stop(ep, g)
			tr.now = time.Millisecond
			tr.fires[0]()
			if len(l.ran) != 0 {
				t.Fatalf("timer of a destroyed stack ran at %v", l.ran)
			}
		})
	}
}

// afterFuncTransport arms real timers, as udpnet does: fires arrive on
// goroutines of their own, racing the endpoint's queue.
type afterFuncTransport struct{ start time.Time }

func (*afterFuncTransport) Send(core.EndpointID, core.GroupAddr, []core.EndpointID, []byte) {}

func (*afterFuncTransport) SetTimer(d time.Duration, fn func()) func() {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

func (f *afterFuncTransport) Now() time.Duration { return time.Since(f.start) }

// TestTimerOnWallClockGoroutines drives a Timer whose fires race its
// Resets and Stops on real timer goroutines: under -race it checks
// that the Timer's state is touched only on the queue, and it checks
// that nothing runs after the last Stop.
func TestTimerOnWallClockGoroutines(t *testing.T) {
	ep, _, l := joinTimed(t, &afterFuncTransport{start: time.Now()})
	var mu sync.Mutex
	runs := 0
	l.onFire = func(*timed) {
		mu.Lock()
		runs++
		mu.Unlock()
	}
	for i := 0; i < 200; i++ {
		ep.Do(func() {
			if i%7 == 6 {
				l.timer.Stop()
			} else {
				l.timer.Reset(time.Duration(i%3) * 50 * time.Microsecond)
			}
		})
		if i%20 == 0 {
			time.Sleep(100 * time.Microsecond) // let some fires win
		}
	}
	ep.Do(l.timer.Stop)
	mu.Lock()
	before := runs
	mu.Unlock()
	time.Sleep(2 * time.Millisecond) // past every deadline armed above
	mu.Lock()
	defer mu.Unlock()
	if runs != before {
		t.Fatalf("%d runs after the last Stop", runs-before)
	}
}
