//horus:wallclock — RealTime is the wall-clock transport by definition:
// goroutines and real timers stand in for the simulator's event queue.

package netsim

import (
	"sync"
	"time"

	"horus/internal/core"
)

// RealTime is a goroutine-based in-process transport using wall-clock
// timers. It provides the same best-effort semantics as Network — the
// same embedded Rules — but runs in real time, for example programs
// that want to feel like a live system. Determinism is not guaranteed;
// tests should use Network.
type RealTime struct {
	mu sync.Mutex
	*Rules
	endpoints map[core.EndpointID]*core.Endpoint
	order     []core.EndpointID
	nextBirth uint64
	start     time.Time
}

// NewRealTime creates a real-time transport with the given link
// behaviour between every pair.
func NewRealTime(seed int64, link Link) *RealTime {
	r := &RealTime{
		endpoints: make(map[core.EndpointID]*core.Endpoint),
		nextBirth: 1,
		start:     time.Now(),
	}
	r.Rules = NewRules(&r.mu, (*realCarrier)(r), seed, link)
	return r
}

// NewEndpoint creates and attaches an endpoint at the named site.
func (r *RealTime) NewEndpoint(site string) *core.Endpoint {
	r.mu.Lock()
	id := core.EndpointID{Site: site, Birth: r.nextBirth}
	r.nextBirth++
	r.mu.Unlock()
	ep := core.NewEndpoint(id, r)
	r.mu.Lock()
	r.endpoints[id] = ep
	r.order = append(r.order, id)
	r.mu.Unlock()
	return ep
}

// Crash fail-stops the endpoint.
func (r *RealTime) Crash(id core.EndpointID) {
	r.mu.Lock()
	ep := r.endpoints[id]
	r.MarkCrashed(id)
	r.mu.Unlock()
	if ep != nil {
		ep.Destroy()
	}
}

// Send implements core.Transport. Empty dests broadcasts to every
// attached endpoint.
func (r *RealTime) Send(from core.EndpointID, group core.GroupAddr, dests []core.EndpointID, wire []byte) {
	shared := make([]byte, len(wire))
	copy(shared, wire)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down(from) {
		return
	}
	targets := dests
	if len(targets) == 0 {
		targets = r.order
	}
	for _, dst := range targets {
		if r.endpoints[dst] != nil {
			r.Route(from, dst, group, shared)
		}
	}
}

// realCarrier is RealTime as its Rules see it.
type realCarrier RealTime

func (c *realCarrier) Clock() time.Duration { return time.Since(c.start) }

// Emit delivers on a timer goroutine, so Send never blocks; the
// endpoint's event queue serializes execution.
func (c *realCarrier) Emit(dst core.EndpointID, group core.GroupAddr, buf []byte, delay time.Duration) {
	if ep := c.endpoints[dst]; ep != nil {
		time.AfterFunc(delay, func() { ep.Deliver(group, buf) })
	}
}

func (c *realCarrier) Arm(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// SetTimer implements core.Transport using wall-clock timers.
func (r *RealTime) SetTimer(d time.Duration, fn func()) (cancel func()) {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

// Now implements core.Transport: wall time since transport creation.
func (r *RealTime) Now() time.Duration { return time.Since(r.start) }
