// Package reorder implements the buffer a layer keeps for what arrived
// ahead of its turn: NAK holds a sequenced message behind a gap in its
// stream, TOTAL a stamped one behind a stamp it has not seen. Both
// number from a counter that moves forward, deliver number next and
// nothing else, and want to know the edges of what they hold — the
// lowest number is the far side of the gap, the highest what the sender
// is known to have reached — so they share one mechanism. It is generic
// over what it parks: NAK a message value (its stream fixes the rest of
// the event), TOTAL the event itself.
//
// The layer keeps the delivered count; the buffer only ever holds
// numbers beyond it. An arrival that is next, with nothing held, is
// delivered without touching the buffer.
package reorder

import (
	"cmp"
	"slices"
)

// Buffer holds values by sequence number, in order. What is held is
// sparse — one number far ahead of the rest, which a member that
// rejoins a long-running stream sees first, costs one entry — so the
// representation is a sorted run, not a window indexed by number: an
// arrival beyond everything held, the usual one while a gap is open,
// appends; one that fills a hole shifts the few entries behind it;
// taking the lowest advances past it. The zero value is empty.
type Buffer[T any] struct {
	held []entry[T] // ascending by seq; held[head:] is what is held
	head int        // entries before it have been popped and cleared
}

type entry[T any] struct {
	seq uint64
	v   T
}

// Len returns how many sequence numbers are held.
func (b *Buffer[T]) Len() int { return len(b.held) - b.head }

// Put holds v under seq. It reports false, and holds nothing new, when
// seq is already held: the first arrival stays.
func (b *Buffer[T]) Put(seq uint64, v T) bool {
	live := b.held[b.head:]
	i := len(live)
	if i > 0 && seq <= live[i-1].seq {
		var dup bool
		i, dup = slices.BinarySearchFunc(live, seq, func(e entry[T], seq uint64) int { return cmp.Compare(e.seq, seq) })
		if dup {
			return false
		}
	}
	if b.head > 0 && len(b.held) == cap(b.held) {
		// Full, with popped entries in front: move down over them
		// rather than let the array grow by what is no longer held.
		n := copy(b.held, live)
		clear(b.held[n:])
		b.held, b.head = b.held[:n], 0
	}
	b.held = slices.Insert(b.held, b.head+i, entry[T]{seq, v})
	return true
}

// Pop takes the value held under seq if seq is the lowest number held,
// the only one a layer that delivers in order ever takes; ok is false,
// and nothing is taken, otherwise.
func (b *Buffer[T]) Pop(seq uint64) (v T, ok bool) {
	if b.head == len(b.held) || b.held[b.head].seq != seq {
		return v, false
	}
	v = b.held[b.head].v
	b.held[b.head] = entry[T]{}
	b.head++
	if b.head == len(b.held) {
		b.held, b.head = b.held[:0], 0
	}
	return v, true
}

// Lowest returns the lowest sequence number held; ok is false when
// nothing is.
func (b *Buffer[T]) Lowest() (seq uint64, ok bool) {
	if b.head == len(b.held) {
		return 0, false
	}
	return b.held[b.head].seq, true
}

// First returns the value held under the lowest number; ok is false
// when nothing is.
func (b *Buffer[T]) First() (v T, ok bool) {
	if b.head == len(b.held) {
		return v, false
	}
	return b.held[b.head].v, true
}

// Highest returns the highest sequence number held; ok is false when
// nothing is.
func (b *Buffer[T]) Highest() (seq uint64, ok bool) {
	if b.head == len(b.held) {
		return 0, false
	}
	return b.held[len(b.held)-1].seq, true
}

// Reset lets go of everything held and of the storage.
func (b *Buffer[T]) Reset() { *b = Buffer[T]{} }
