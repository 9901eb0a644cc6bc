package core

import (
	"slices"

	"horus/internal/reorder"
)

// Queue is how a layer parks events past its call: a FIFO whose Put
// holds a received packet's record, otherwise reused once its upcall
// returns (Deliver). Entries sit behind a head index and the storage is
// reused across drains, as the executor's queue is. The zero value is
// empty.
type Queue struct {
	evs  []*Event // evs[head:] is parked, oldest first
	head int
}

// Put parks ev last, holding it if it is, or carries, the running packet.
func (q *Queue) Put(c *Context, ev *Event) {
	c.stack.group.ep.exec.hold(ev)
	if q.head > 0 && len(q.evs) == cap(q.evs) { // move down over taken entries rather than grow
		n := copy(q.evs, q.evs[q.head:])
		clear(q.evs[n:])
		q.evs, q.head = q.evs[:n], 0
	}
	q.evs = append(q.evs, ev) //horus:hcpi-ok — held above: this is the one keep
}

// Len returns how many events are parked.
func (q *Queue) Len() int { return len(q.evs) - q.head }

// At returns the event at position i, 0 the oldest.
func (q *Queue) At(i int) *Event { return q.evs[q.head+i] }

// Remove takes the event at position i; taking the oldest moves nothing.
func (q *Queue) Remove(i int) *Event {
	ev := q.evs[q.head+i]
	if i == 0 {
		q.evs[q.head] = nil
		q.head++
	} else {
		q.evs = slices.Delete(q.evs, q.head+i, q.head+i+1)
	}
	if q.head == len(q.evs) {
		q.evs, q.head = q.evs[:0], 0
	}
	return ev
}

// Drain takes everything parked and passes it to fn, oldest first. The
// queue is empty while fn runs: what fn parks stays parked, in order,
// and a Drain nested in fn sees only that.
func (q *Queue) Drain(fn func(*Event)) {
	evs, live := q.evs, q.evs[q.head:]
	q.evs, q.head = nil, 0
	for i, ev := range live {
		live[i] = nil
		fn(ev)
	}
	if q.evs == nil {
		q.evs = evs[:0]
	}
}

// OrderedQueue parks events by sequence number, for a layer that
// delivers them in order: a reorder.Buffer whose Put holds as
// Queue.Put does.
type OrderedQueue struct{ reorder.Buffer[*Event] }

// Put parks ev under seq and holds it; it reports false, and parks
// nothing, when seq is already parked.
func (q *OrderedQueue) Put(c *Context, seq uint64, ev *Event) bool {
	c.stack.group.ep.exec.hold(ev)
	return q.Buffer.Put(seq, ev) //horus:hcpi-ok — held above: this is the one ordered keep
}
