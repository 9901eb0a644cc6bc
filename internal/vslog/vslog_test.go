package vslog

import (
	"fmt"
	"slices"
	"testing"

	"horus/internal/core"
	"horus/internal/message"
)

var (
	a = core.EndpointID{Site: "a", Birth: 1}
	b = core.EndpointID{Site: "b", Birth: 2}
	c = core.EndpointID{Site: "c", Birth: 3}
)

func TestDelivered(t *testing.T) {
	type add struct {
		origin core.EndpointID
		seq    uint64
	}
	for _, tc := range []struct {
		name  string
		adds  []add
		has   []add // delivered
		hasnt []add // not delivered
		count map[core.EndpointID]uint64
	}{
		{
			name:  "empty",
			hasnt: []add{{a, 1}, {b, 1}},
			count: map[core.EndpointID]uint64{a: 0},
		},
		{
			name:  "in order",
			adds:  []add{{a, 1}, {a, 2}, {b, 1}, {a, 3}},
			has:   []add{{a, 1}, {a, 2}, {a, 3}, {b, 1}},
			hasnt: []add{{a, 4}, {b, 2}, {c, 1}},
			count: map[core.EndpointID]uint64{a: 3, b: 1, c: 0},
		},
		{
			name:  "duplicates change nothing",
			adds:  []add{{a, 1}, {a, 2}, {a, 1}, {a, 2}, {a, 4}, {a, 4}},
			has:   []add{{a, 1}, {a, 2}, {a, 4}},
			hasnt: []add{{a, 3}, {a, 5}},
			count: map[core.EndpointID]uint64{a: 2},
		},
		{
			name:  "beyond the prefix, held until the gap fills",
			adds:  []add{{a, 1}, {a, 3}, {a, 5}, {a, 4}},
			has:   []add{{a, 1}, {a, 3}, {a, 4}, {a, 5}},
			hasnt: []add{{a, 2}, {a, 6}},
			count: map[core.EndpointID]uint64{a: 1},
		},
		{
			name:  "the gap filled",
			adds:  []add{{a, 1}, {a, 3}, {a, 5}, {a, 4}, {a, 2}},
			has:   []add{{a, 1}, {a, 2}, {a, 3}, {a, 4}, {a, 5}},
			hasnt: []add{{a, 6}},
			count: map[core.EndpointID]uint64{a: 5},
		},
		{
			name:  "origins apart",
			adds:  []add{{a, 2}, {b, 1}, {b, 2}},
			has:   []add{{a, 2}, {b, 1}, {b, 2}},
			hasnt: []add{{a, 1}, {b, 3}},
			count: map[core.EndpointID]uint64{a: 0, b: 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d Delivered
			for _, x := range tc.adds {
				d.Add(x.origin, x.seq)
			}
			for _, x := range tc.has {
				if !d.Has(x.origin, x.seq) {
					t.Errorf("Has(%v, %d) = false, want true", x.origin, x.seq)
				}
			}
			for _, x := range tc.hasnt {
				if d.Has(x.origin, x.seq) {
					t.Errorf("Has(%v, %d) = true, want false", x.origin, x.seq)
				}
			}
			for o, want := range tc.count {
				if got := d.Count(o); got != want {
					t.Errorf("Count(%v) = %d, want %d", o, got, want)
				}
			}
			d.Reset()
			for _, x := range tc.has {
				if d.Has(x.origin, x.seq) {
					t.Errorf("after Reset, Has(%v, %d) = true", x.origin, x.seq)
				}
			}
			if got := d.Count(a); got != 0 {
				t.Errorf("after Reset, Count(a) = %d", got)
			}
		})
	}
}

// contents lists what l holds in Each's order.
func contents(l *Log) []string {
	var out []string
	l.Each(func(origin core.EndpointID, seq uint64, msg *message.Message) {
		out = append(out, fmt.Sprintf("%s/%d %s", origin.Site, seq, msg.Body()))
	})
	return out
}

// logOf logs, in the order given, one cast per "origin/seq" pair.
func logOf(casts ...any) *Log {
	var l Log
	for i := 0; i < len(casts); i += 2 {
		origin, seq := casts[i].(core.EndpointID), uint64(casts[i+1].(int))
		l.Add(origin, seq, message.New([]byte(fmt.Sprint(origin.Site, seq))))
	}
	return &l
}

func TestLogEachOrder(t *testing.T) {
	l := logOf(c, 1, a, 2, b, 1, a, 1, c, 2, a, 3)
	got := fmt.Sprint(contents(l))
	want := fmt.Sprint([]string{"a/2 a2", "a/1 a1", "a/3 a3", "b/1 b1", "c/1 c1", "c/2 c2"})
	if got != want {
		t.Errorf("Each visited %s, want origins oldest first, each in the order added: %s", got, want)
	}
	if n := l.Len(); n != 6 {
		t.Errorf("Len() = %d, want 6", n)
	}
	l.Reset()
	if n, got := l.Len(), contents(l); n != 0 || len(got) != 0 {
		t.Errorf("after Reset: Len() = %d, Each visited %v", n, got)
	}
}

func TestLogTrim(t *testing.T) {
	members := []core.EndpointID{a, b, c}
	for _, tc := range []struct {
		name   string
		report map[core.EndpointID][]uint64 // origin -> count per member
		want   []string
	}{
		{
			name: "no reports",
			want: []string{"a/1 a1", "a/2 a2", "a/3 a3", "b/1 b1", "b/2 b2"},
		},
		{
			name:   "a member has not reported",
			report: map[core.EndpointID][]uint64{a: {3, 3, 0}, b: {2, 0, 2}},
			want:   []string{"a/1 a1", "a/2 a2", "a/3 a3", "b/1 b1", "b/2 b2"},
		},
		{
			name:   "up to the minimum",
			report: map[core.EndpointID][]uint64{a: {3, 2, 3}, b: {2, 1, 1}},
			want:   []string{"a/3 a3", "b/2 b2"},
		},
		{
			name:   "all stable",
			report: map[core.EndpointID][]uint64{a: {3, 3, 4}, b: {2, 2, 2}},
			want:   nil,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := logOf(a, 1, a, 2, b, 1, a, 3, b, 2)
			m := core.NewStabilityMatrix(members)
			for origin, counts := range tc.report {
				for j, n := range counts {
					m.Raise(slices.Index(m.Members, origin), j, n)
				}
			}
			l.Trim(m)
			if got := contents(l); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("after Trim: %v, want %v", got, tc.want)
			}
			if l.Len() != len(tc.want) {
				t.Errorf("Len() = %d, want %d", l.Len(), len(tc.want))
			}
		})
	}
	l := logOf(a, 1)
	l.Trim(nil)
	if l.Len() != 1 {
		t.Error("Trim(nil) dropped a cast")
	}
}

// TestLogHoldsACopy: what the log holds is what was added, whatever the
// owner of the message does to it afterwards — pop and push headers, or
// rewrite the buffer the body came from.
func TestLogHoldsACopy(t *testing.T) {
	body := []byte("body")
	msg := message.New(body)
	msg.PushString("hdr")
	want := string(msg.Marshal())
	var l Log
	l.Add(a, 1, msg)
	msg.PopString()
	msg.PushUint(7)
	msg.PushString("other")
	copy(body, "BODY")
	l.Each(func(_ core.EndpointID, _ uint64, got *message.Message) {
		if string(got.Marshal()) != want {
			t.Errorf("logged %q, want %q", got.Marshal(), want)
		}
	})
}

// TestBooksAllocs pins the books' data path: recording a delivery in
// order and logging a received message cost nothing beyond the log's
// growth, which the log here has already made.
func TestBooksAllocs(t *testing.T) {
	var d Delivered
	var l Log
	const runs = 100
	arrived := make([]*message.Message, runs+1)
	for i := range arrived {
		m := message.New([]byte("payload"))
		m.PushUint(uint64(i))
		received, err := message.Unmarshal(m.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		arrived[i] = received
	}
	for seq := uint64(1); seq <= runs+1; seq++ {
		l.Add(a, seq, arrived[0])
	}
	all := core.NewStabilityMatrix([]core.EndpointID{a})
	all.Raise(0, 0, runs+1)
	l.Trim(all) // empty again, with room for every add below
	d.Add(a, 1)

	seq := uint64(runs + 1)
	allocs := testing.AllocsPerRun(runs, func() {
		seq++
		d.Add(a, seq-runs)
		l.Add(a, seq, arrived[seq-runs-2])
	})
	if allocs != 0 {
		t.Errorf("an in-order delivery recorded and logged: %v allocations, want 0", allocs)
	}
	if got := d.Count(a); got != runs+2 {
		t.Errorf("Count(a) = %d after %d in-order adds, want %d", got, runs+2, runs+2)
	}
}
