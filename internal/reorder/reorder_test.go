package reorder

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// model is the buffer as the layers used to keep it: a plain map from
// sequence number to what is parked, with its edges found by scanning,
// next to the delivered count the layer keeps. Buffer must be
// indistinguishable from it. What is parked is a value, as in NAK: a
// number that names the arrival, or marker.
type model struct {
	held      map[uint64]int
	delivered uint64
	arrivals  int // the last arrival's number
}

func (m *model) edges() (lo, hi uint64) {
	for seq := range m.held {
		if lo == 0 || seq < lo {
			lo = seq
		}
		hi = max(hi, seq)
	}
	return lo, hi
}

// marker is what NAK parks under a number a place holder covered: the
// zero value, which no arrival is.
const marker = 0

// The operations a receive stream performs on its buffer.
const (
	opArrive   = iota // an arrival arg ahead of the stream: held unless next or a duplicate
	opMarkers         // a place holder ahead of the stream: a marker per number, arrivals stay
	opSkip            // a place holder that continues the stream: jump to the lowest held
	opPopWrong        // taking anything but the lowest number takes nothing
	opReset           // a view change
	opCount
)

// step applies one operation to both and fails on the first difference.
func step(t *testing.T, b *Buffer[int], m *model, op int, arg uint64) {
	t.Helper()
	drain := func() {
		for {
			got, ok := b.Pop(m.delivered + 1)
			want, held := m.held[m.delivered+1]
			if got != want || ok != held {
				t.Fatalf("Pop(%d) = %d, %v; model holds %d, %v", m.delivered+1, got, ok, want, held)
			}
			if !held {
				return
			}
			delete(m.held, m.delivered+1)
			m.delivered++
		}
	}
	put := func(seq uint64, v int) {
		_, dup := m.held[seq]
		if !dup {
			m.held[seq] = v
		}
		if fresh := b.Put(seq, v); fresh == dup {
			t.Fatalf("Put(%d) fresh=%v, model had it=%v", seq, fresh, dup)
		}
	}
	switch op % opCount {
	case opArrive:
		switch seq := m.delivered + 1 + arg; {
		case seq <= m.delivered: // wrapped
		case seq == m.delivered+1:
			m.delivered = seq
			drain()
		default:
			m.arrivals++
			put(seq, m.arrivals)
		}
	case opMarkers:
		lo := m.delivered + 2 + arg%64
		for i := uint64(0); i <= arg/64%32 && lo+i > m.delivered; i++ {
			put(lo+i, marker)
		}
	case opSkip:
		if lo, _ := m.edges(); lo != 0 {
			m.delivered = lo - 1
			drain()
		}
	case opPopWrong:
		if lo, _ := m.edges(); m.delivered+1+arg != lo {
			if got, ok := b.Pop(m.delivered + 1 + arg); ok {
				t.Fatalf("Pop(%d) took %d with lowest %d", m.delivered+1+arg, got, lo)
			}
		}
	case opReset:
		b.Reset()
		clear(m.held)
	}

	lo, hi := m.edges()
	gotLo, okLo := b.Lowest()
	gotHi, okHi := b.Highest()
	if b.Len() != len(m.held) || gotLo != lo || gotHi != hi || okLo != (len(m.held) > 0) || okHi != okLo {
		t.Fatalf("after op %d arg %d: Len=%d Lowest=%d,%v Highest=%d,%v; model holds %d in [%d, %d]",
			op%opCount, arg, b.Len(), gotLo, okLo, gotHi, okHi, len(m.held), lo, hi)
	}
	if first, ok := b.First(); first != m.held[lo] || ok != okLo {
		t.Fatalf("after op %d arg %d: First=%d,%v; model holds %d under %d", op%opCount, arg, first, ok, m.held[lo], lo)
	}
}

// TestBufferMatchesMapModel runs 5 000 random operations of a receive
// stream — arrivals mostly just ahead of the stream (so many are
// duplicates of what is held, or fill the gap and drain what is behind
// it), some far ahead as a rejoining member sees them, ranges of place
// holder markers laid over held arrivals, skips, resets — against the
// map, and checks every result and both edges after each.
func TestBufferMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var b Buffer[int]
	m := &model{held: map[uint64]int{}}
	most := 0
	for i := 0; i < 5000; i++ {
		op, arg := opArrive, uint64(rng.Intn(12))
		switch r := rng.Intn(100); {
		case r < 70:
		case r < 75:
			arg = uint64(rng.Int63n(1 << 40)) // far ahead
		case r < 85:
			op, arg = opMarkers, rng.Uint64()
		case r < 91:
			op = opSkip
		case r < 98:
			op, arg = opPopWrong, uint64(rng.Intn(20))
		default:
			op = opReset
		}
		step(t, &b, m, op, arg)
		most = max(most, len(m.held))
	}
	if m.delivered < 1000 || most < 30 {
		t.Errorf("the run delivered %d and never held more than %d: not much of a test", m.delivered, most)
	}
}

// FuzzBuffer is the model test with the operations read from the input,
// nine bytes each.
func FuzzBuffer(f *testing.F) {
	f.Add([]byte{opArrive, 0, 0, 0, 0, 0, 0, 0, 3, opArrive, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{opArrive, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE, opMarkers, 0, 0, 0, 0, 0, 0, 0x07, 0xC1, opSkip, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var b Buffer[int]
		m := &model{held: map[uint64]int{}}
		for ; len(ops) >= 9; ops = ops[9:] {
			step(t, &b, m, int(ops[0]), binary.BigEndian.Uint64(ops[1:]))
		}
	})
}
