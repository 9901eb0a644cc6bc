package core

import (
	"sync"

	"horus/internal/message"
)

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

	// packets, sends and downs hold spent records for later arrivals
	// (Deliver), later sends (Context.NewSendTo) and later Table 1
	// downcalls (Group.Cast). They and slab are guarded by mu, which
	// the drain loop retakes after every run anyway, so the records of
	// a run go back at no extra lock.
	packets free[packet]
	sends   free[send]
	downs   free[downcall]
	slab    message.Slab // header storage of the send and downcall records
	// cur is the packet whose upcall is running, or nil: an arrival,
	// or within it the record a parked message goes up in
	// (Context.UpParked). down is the downcall that is running, or nil.
	// made is the send records the running entry has made. Only the
	// drainer touches them, on the event queue (Queue.Put, Group.Hold,
	// Context.Transmit).
	cur  *packet
	down *downcall
	made []*send
}

// free is one kind of spent record kept for reuse, oldest first, in a
// ring from head.
type free[T any] struct {
	recs [freeRecords]*T
	head int
	n    int
}

// freeRecords bounds the spent records of one kind an endpoint keeps;
// the records of a burst longer than this go back to the collector.
const freeRecords = 32

// reuseDelay is how many later records must go back before a spent one
// is handed out again. Until then it reads as spent (recycle), so an
// event a layer kept without parking it fails at the next crossing
// (Context.Up, Context.Down) rather than reading as a later arrival or
// a later send. An endpoint keeps reuseDelay+1 records of each kind in
// steady state.
const reuseDelay = 16

// take returns the oldest spent record once reuseDelay later ones have
// gone back, or a new one.
func (f *free[T]) take() *T {
	if f.n <= reuseDelay {
		return new(T)
	}
	r := f.recs[f.head]
	f.recs[f.head] = nil
	f.head = (f.head + 1) % freeRecords
	f.n--
	return r
}

// put keeps r, which is spent, while the ring has room.
func (f *free[T]) put(r *T) {
	if f.n < freeRecords {
		f.recs[(f.head+f.n)%freeRecords] = r
		f.n++
	}
}

// spent is the type of a record that has gone back to its endpoint: no
// layer passes it on.
const spent EventType = -1

// spentPanic is what a crossing of a spent record panics with.
const spentPanic = "core: a spent record crossed a layer: something kept a received upcall's event, a send " +
	"a layer built (Context.NewSendTo, NewDowncall) or an application's cast or send, past its run without " +
	"parking it (Queue.Put, OrderedQueue.Put) or, in a handler, Group.Hold"

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
		switch r := next.(type) {
		case *packet:
			x.cur = nil
			if !r.held {
				x.recycle(r)
			}
		case *downcall:
			x.down = nil
			if r.sent && !r.held {
				*r = downcall{ev: Event{Type: spent}}
				x.downs.put(r)
			}
		}
		if len(x.made) > 0 { // most runs make no send
			for i, r := range x.made {
				if !r.held {
					*r = send{ev: Event{Type: spent}}
					x.sends.put(r)
				}
				x.made[i] = nil
			}
			x.made = x.made[:0]
		}
	}
	x.queue = x.queue[:0]
	x.head = 0
	x.running = false
	x.mu.Unlock()
}

// hold marks the running packet held if ev is, or carries, its record,
// and so the running downcall, and each send record the run made that
// ev is or whose message or destination ev carries.
func (x *executor) hold(ev *Event) {
	if p := x.cur; p != nil && (ev == &p.ev || ev.Msg == &p.msg) {
		p.held = true
	}
	if d := x.down; d != nil && (ev == &d.ev || ev.Msg == &d.msg) {
		d.held = true
	}
	for _, r := range x.made {
		if ev == &r.ev || ev.Msg == &r.msg || len(ev.Dests) > 0 && &ev.Dests[0] == &r.dest[0] {
			r.held = true
		}
	}
}

// recycle clears p, so it pins no wire buffer, marks it spent, and
// keeps it for a later arrival while the free list has room; x.mu is
// held.
func (x *executor) recycle(p *packet) {
	*p = packet{ev: Event{Type: spent}}
	x.packets.put(p)
}

// newSend returns the record behind Context.NewSendTo and NewDowncall,
// for an event of type typ, with hdr+sendRoom bytes of header storage
// carved from the slab. A record made within a run is the run's.
func (x *executor) newSend(typ EventType, hdr int) *send {
	x.mu.Lock()
	s := x.sends.take()
	buf := x.slab.Take(hdr + sendRoom)
	if x.running {
		x.made = append(x.made, s)
	}
	x.mu.Unlock()
	s.msg.AttachHeadroom(buf)
	s.ev = Event{Type: typ, Msg: &s.msg}
	return s
}
