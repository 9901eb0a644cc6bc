package vslog

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/message"
)

// TestVector: a vector raises the sender's column where its counts lie
// when it names the reader's view and has a count per member; one from
// another view, of another length or from outside raises nothing.
func TestVector(t *testing.T) {
	self, x := layertest.ID("self", 1), layertest.ID("x", 4)
	v := core.NewView(core.ViewID{Seq: 3, Coord: self}, "test", []core.EndpointID{self, p1, p2})
	other := core.NewView(core.ViewID{Seq: 3, Coord: p1}, "test", v.Members)
	cases := []struct {
		name    string
		id      core.ViewID
		counts  []uint64
		from    core.EndpointID
		column  []uint64 // p1's column after the receipt
		changed bool
	}{
		{"ours", v.ID, []uint64{4, 2, 7}, p1, []uint64{4, 2, 7}, true},
		{"a same-seq sibling's", other.ID, []uint64{4, 2, 7}, p1, []uint64{0, 0, 0}, false},
		{"an older view's", core.ViewID{Seq: 2, Coord: self}, []uint64{4, 2, 7}, p1, []uint64{0, 0, 0}, false},
		{"one count short", v.ID, []uint64{4, 2}, p1, []uint64{0, 0, 0}, false},
		{"from outside", v.ID, []uint64{4, 2, 7}, x, []uint64{0, 0, 0}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			matrix := core.NewStabilityMatrix(v.Members)
			m := message.New(nil)
			PushVector(m, c.id, c.counts, nil)
			if got := RaiseVector(m, v, matrix, c.from, nil); got != c.changed {
				t.Errorf("RaiseVector = %v, want %v", got, c.changed)
			}
			for i, want := range c.column {
				if got := matrix.Acked[i][1]; got != want {
					t.Errorf("matrix[%d][p1] = %d, want %d", i, got, want)
				}
			}
		})
	}
	if RaiseVector(message.New(nil), nil, nil, p1, nil) {
		t.Error("a vector raised something before the first view")
	}

	matrix := core.NewStabilityMatrix(v.Members)
	m := message.New(nil)
	counts := []uint64{1, 2, 3}
	if allocs := testing.AllocsPerRun(100, func() {
		PushVector(m, v.ID, counts, nil)
		RaiseVector(m, v, matrix, p2, nil)
	}); allocs != 0 {
		t.Errorf("a vector pushed and raised: %v allocations, want 0", allocs)
	}
}

// TestLedgerStamp: Identify names a cast by its source and the number
// Stamp gave it, one more than the number before.
func TestLedgerStamp(t *testing.T) {
	var l Ledger
	for want := uint64(1); want <= 3; want++ {
		m := message.New([]byte("x"))
		l.Stamp(m)
		ev := &core.Event{Type: core.UCast, Source: p1, Msg: m}
		l.Identify(ev)
		if ev.ID != (core.MsgID{Origin: p1, Seq: want}) || m.HeaderLen() != 0 {
			t.Errorf("cast %d identified as %v with %d header bytes left", want, ev.ID, m.HeaderLen())
		}
	}
	if l.Sent != 3 {
		t.Errorf("Sent = %d after three stamps, want 3", l.Sent)
	}
}
