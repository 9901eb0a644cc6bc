package udpnet_test

import (
	"sync/atomic"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/udpnet"
)

// TestCancelTimerByHandle: udpnet arms a core.Timers timer on a
// wall-clock goroutine, and its handle holds that *time.Timer.
// CancelTimer stops an arm that has not fired, and after the fire it
// does nothing: the fire runs once either way. Under -race the
// cancels racing their fires check that the handle is safe to cancel
// from the endpoint's goroutine while the timer's own fires.
func TestCancelTimerByHandle(t *testing.T) {
	tr, err := udpnet.Listen("127.0.0.1:0", core.EndpointID{Site: "a", Birth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	var stopped atomic.Int32
	h := tr.ArmTimer(20*time.Millisecond, func() { stopped.Add(1) })
	tr.CancelTimer(h)

	fired := make(chan struct{}, 1)
	h = tr.ArmTimer(time.Millisecond, func() { fired <- struct{}{} })
	<-fired
	tr.CancelTimer(h) // after the fire: nothing to stop

	var raced atomic.Int32
	const arms = 200
	for i := 0; i < arms; i++ {
		tr.CancelTimer(tr.ArmTimer(time.Duration(i%3)*10*time.Microsecond, func() { raced.Add(1) }))
	}
	time.Sleep(40 * time.Millisecond) // past every deadline armed above
	if n := stopped.Load(); n != 0 {
		t.Errorf("a cancelled arm fired %d times", n)
	}
	if len(fired) != 0 {
		t.Error("an arm fired twice")
	}
	if n := raced.Load(); n > arms {
		t.Errorf("%d fires from %d arms", n, arms)
	}
}
