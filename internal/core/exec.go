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
}

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
	}
	x.queue = x.queue[:0]
	x.head = 0
	x.running = false
	x.mu.Unlock()
}
