//horus:wallclock — RealTime is the wall-clock transport by definition:
// goroutines and real timers stand in for the simulator's event queue.

// Package realtime is netsim's wall-clock twin: the same fault rules
// over goroutines and real timers. It is a package of its own so that
// the //horus:wallclock exemption covers all of it and none of netsim.
package realtime

import (
	"sync"
	"time"

	"horus/internal/core"
	"horus/internal/netsim"
)

// RealTime is a goroutine-based in-process transport using wall-clock
// timers. It provides the same best-effort semantics as netsim.Network
// — the same embedded Rules — but runs in real time, for example
// programs that want to feel like a live system. Determinism is not
// guaranteed; tests should use netsim.Network.
type RealTime struct {
	mu sync.Mutex
	*netsim.Rules
	endpoints map[core.EndpointID]*core.Endpoint
	order     []core.EndpointID
	nextBirth uint64
	start     time.Time

	// due holds deliveries in the order they came due, for the one
	// goroutine draining it (draining): one timer goroutine per packet
	// would let the scheduler run them in any order, and a perfect link
	// must deliver in send order.
	due      []delivery
	draining bool
}

type delivery struct {
	ep    *core.Endpoint
	group core.GroupAddr
	buf   []byte
}

// New creates a real-time transport with the given link behaviour
// between every pair.
func New(seed int64, link netsim.Link) *RealTime {
	r := &RealTime{
		endpoints: make(map[core.EndpointID]*core.Endpoint),
		nextBirth: 1,
		start:     time.Now(),
	}
	r.Rules = netsim.NewRules(&r.mu, (*realCarrier)(r), seed, link)
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
	if r.Crashed(from) { // takes the lock itself
		return
	}
	shared := make([]byte, len(wire))
	copy(shared, wire)
	r.mu.Lock()
	defer r.mu.Unlock()
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

// Emit queues the delivery at once on a link without delay, otherwise
// when a timer says it is due. Delivery runs on the draining goroutine,
// so Send never blocks; the endpoint's event queue serializes execution.
func (c *realCarrier) Emit(dst core.EndpointID, group core.GroupAddr, buf []byte, delay time.Duration) {
	r := (*RealTime)(c)
	ep := r.endpoints[dst]
	if ep == nil {
		return
	}
	d := delivery{ep, group, buf}
	if delay <= 0 {
		r.dueLocked(d)
		return
	}
	time.AfterFunc(delay, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.dueLocked(d)
	})
}

// dueLocked appends one delivery to the queue and starts a drainer if
// none is running. The caller holds r.mu.
func (r *RealTime) dueLocked(d delivery) {
	r.due = append(r.due, d)
	if !r.draining {
		r.draining = true
		go r.drain()
	}
}

// drain delivers queued packets in order until the queue is empty. The
// lock is dropped around each delivery: the receiving stack may Send.
func (r *RealTime) drain() {
	r.mu.Lock()
	for len(r.due) > 0 {
		d := r.due[0]
		r.due[0] = delivery{}
		r.due = r.due[1:]
		r.mu.Unlock()
		d.ep.Deliver(d.group, d.buf)
		r.mu.Lock()
	}
	r.draining = false
	r.mu.Unlock()
}

func (c *realCarrier) Arm(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// SetTimer implements core.Transport using wall-clock timers.
func (r *RealTime) SetTimer(d time.Duration, fn func()) (cancel func()) {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

// Now implements core.Transport: wall time since transport creation.
func (r *RealTime) Now() time.Duration { return time.Since(r.start) }
