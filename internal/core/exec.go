package core

import "sync"

// executor is the event-queue execution model the paper reports moving
// to (§3 end, §10 item 2): rather than locking layers against
// concurrent threads, every invocation of a stack is placed on a queue
// and executed to completion by a single logical scheduling thread per
// endpoint. Besides eliminating intra-stack locking, this makes
// downcalls issued from within upcall handlers non-recursive: they are
// enqueued and run next, so application handlers may freely Cast.
type executor struct {
	mu      sync.Mutex
	queue   []runner
	head    int // next entry to run; queue[:head] is already done
	running bool

	// free holds spent packet records for the next arrivals (Deliver);
	// it is guarded by mu, which the drain loop retakes after every run
	// anyway, so a record goes back at no extra lock.
	free []*packet
	// cur is the packet whose upcall is running, or nil: an arrival,
	// or within it the record a parked message goes up in
	// (Context.UpParked). Only the drainer touches it, on the event
	// queue (Hold).
	cur *packet
}

// freePackets bounds the spent packet records an endpoint keeps for
// later arrivals. Only arrivals queued behind a running drain need more
// than one at a time; the records of a burst longer than this go back
// to the collector.
const freePackets = 32

// runner is one queue entry. The receive path and the Table 1
// downcalls enqueue their per-event record directly (packet in
// endpoint.go, downcall in group.go), so neither costs a closure;
// everything else goes through Do.
type runner interface{ run() }

// funcRunner adapts a plain function to the queue. A func value is
// pointer-shaped, so the conversion does not allocate.
type funcRunner func()

func (f funcRunner) run() { f() }

// Do runs fn on the endpoint's event queue; see enqueue.
func (x *executor) Do(fn func()) { x.enqueue(funcRunner(fn)) }

// enqueue runs r on the endpoint's event queue. If no drain is in
// progress, the calling goroutine becomes the drainer and r (plus any
// work r enqueues) executes synchronously before enqueue returns; if a
// drain is already active — including the case where r is enqueued
// from inside a running event — r is queued for that drainer and
// enqueue returns immediately.
func (x *executor) enqueue(r runner) {
	x.mu.Lock()
	x.push(r)
}

// push is enqueue with x.mu already held; it releases the lock.
func (x *executor) push(r runner) {
	x.queue = append(x.queue, r)
	if x.running {
		x.mu.Unlock()
		return
	}
	x.running = true
	// Drain by head index rather than re-slicing the front: queue[1:]
	// would strand the backing array's capacity behind the head, making
	// nearly every enqueue reallocate. With an index the array is
	// reused across drains — the queue's steady-state allocation rate
	// is zero, which matters at cluster scale where every delivered
	// packet passes through here.
	for x.head < len(x.queue) {
		next := x.queue[x.head]
		x.queue[x.head] = nil // release the entry for GC
		x.head++
		x.mu.Unlock()
		next.run()
		x.mu.Lock()
		if p, ok := next.(*packet); ok {
			x.cur = nil
			if !p.held {
				x.recycle(p)
			}
		}
	}
	x.queue = x.queue[:0]
	x.head = 0
	x.running = false
	x.mu.Unlock()
}

// hold marks the running packet held if ev is, or carries, its record.
func (x *executor) hold(ev *Event) {
	if p := x.cur; p != nil && (ev == &p.ev || ev.Msg == &p.msg) {
		p.held = true
	}
}

// newPacket returns a spent packet record, or a new one; x.mu is held.
func (x *executor) newPacket() *packet {
	if n := len(x.free); n > 0 {
		p := x.free[n-1]
		x.free[n-1] = nil
		x.free = x.free[:n-1]
		return p
	}
	return new(packet)
}

// recycle clears p, so it pins no wire buffer, and keeps it for the
// next arrival while the free list has room; x.mu is held.
func (x *executor) recycle(p *packet) {
	if len(x.free) < freePackets {
		*p = packet{}
		x.free = append(x.free, p)
	}
}
