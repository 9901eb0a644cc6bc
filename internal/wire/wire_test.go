package wire_test

import (
	"slices"
	"testing"
	"testing/quick"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/wire"
)

func TestEndpointIDRoundTrip(t *testing.T) {
	m := message.New(nil)
	id := core.EndpointID{Site: "host-7", Birth: 42}
	wire.PushEndpointID(m, id)
	if got := wire.PopEndpointID(m); got != id {
		t.Fatalf("got %v, want %v", got, id)
	}
}

// TestPopKnownEndpointID: a known identifier resolves to the same value
// without allocating (same site, different birth is a different
// endpoint); an unknown one still decodes, at the cost of its string.
func TestPopKnownEndpointID(t *testing.T) {
	known := []core.EndpointID{{Site: "host-7", Birth: 41}, {Site: "host-7", Birth: 42}, {Site: "host-8", Birth: 43}}
	m := message.New(nil)
	pop := func(id core.EndpointID) (got core.EndpointID, allocs float64) {
		allocs = testing.AllocsPerRun(10, func() {
			wire.PushEndpointID(m, id)
			got = wire.PopKnownEndpointID(m, known)
		})
		return got, allocs
	}
	for _, id := range known {
		if got, allocs := pop(id); got != id || allocs != 0 {
			t.Errorf("known %v: got %v with %v allocations, want 0", id, got, allocs)
		}
	}
	stranger := core.EndpointID{Site: "host-7", Birth: 99}
	if got, allocs := pop(stranger); got != stranger || allocs != 1 {
		t.Errorf("unknown %v: got %v with %v allocations, want 1", stranger, got, allocs)
	}
}

func TestIDListRoundTrip(t *testing.T) {
	ids := []core.EndpointID{
		{Site: "a", Birth: 1},
		{Site: "b", Birth: 2},
		{Site: "c", Birth: 3},
	}
	m := message.New(nil)
	wire.PushIDList(m, ids)
	got := wire.PopIDList(m)
	if len(got) != len(ids) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("element %d: %v != %v (order must be preserved)", i, got[i], ids[i])
		}
	}
}

func TestEmptyIDList(t *testing.T) {
	m := message.New(nil)
	wire.PushIDList(m, nil)
	if got := wire.PopIDList(m); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestViewRoundTrip(t *testing.T) {
	a := core.EndpointID{Site: "a", Birth: 1}
	b := core.EndpointID{Site: "b", Birth: 2}
	v := core.NewView(core.ViewID{Seq: 9, Coord: a}, "grp", []core.EndpointID{a, b})
	m := message.New(nil)
	wire.PushView(m, v)
	got := wire.PopView(m)
	if got.ID != v.ID || got.Group != v.Group || got.Size() != 2 {
		t.Fatalf("got %v, want %v", got, v)
	}
	for i := range v.Members {
		if got.Members[i] != v.Members[i] {
			t.Fatalf("member %d mismatch", i)
		}
	}
}

func TestQuickCountsRoundTrip(t *testing.T) {
	f := func(counts []uint64) bool {
		m := message.New(nil)
		wire.PushCounts(m, counts)
		got := wire.PopCounts(m)
		if len(got) != len(counts) {
			return false
		}
		for i := range counts {
			if got[i] != counts[i] {
				return false
			}
		}
		return m.HeaderLen() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIDRoundTrip(t *testing.T) {
	f := func(site string, birth uint64) bool {
		m := message.New(nil)
		id := core.EndpointID{Site: site, Birth: birth}
		wire.PushEndpointID(m, id)
		return wire.PopEndpointID(m) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStackedEncodingsPopInReverse(t *testing.T) {
	// Layers push multiple structures; they must pop cleanly in
	// reverse, leaving lower layers' headers untouched.
	m := message.New([]byte("body"))
	m.PushUint32(0xDEAD) // a lower layer's header
	a := core.EndpointID{Site: "a", Birth: 1}
	wire.PushIDList(m, []core.EndpointID{a})
	wire.PushViewID(m, core.ViewID{Seq: 3, Coord: a})
	if got := wire.PopViewID(m); got.Seq != 3 {
		t.Fatal("view id mismatch")
	}
	if got := wire.PopIDList(m); len(got) != 1 || got[0] != a {
		t.Fatal("id list mismatch")
	}
	if got := m.PopUint32(); got != 0xDEAD {
		t.Fatal("lower header disturbed")
	}
}

// A list count damaged in flight must fail the way a pop past the end of
// the headers does — a message.ShortRead panic, which the endpoint turns
// into a dropped packet — and before it sizes an allocation: 2^32-1
// identifiers would be 100 GB.
func TestGarbledListCountPanicsBeforeAllocating(t *testing.T) {
	for name, pop := range map[string]func(*message.Message){
		"PopIDList": func(m *message.Message) { wire.PopIDList(m) },
		"PopKnownIDList": func(m *message.Message) {
			wire.PopKnownIDList(m, []core.EndpointID{{Site: "a", Birth: 1}})
		},
		"PopCounts": func(m *message.Message) { wire.PopCounts(m) },
		"PopPairs":  func(m *message.Message) { wire.PopPairs(m, nil, func(core.EndpointID, uint64) {}) },
	} {
		for _, count := range []uint32{2, 1 << 20, 1<<32 - 1} {
			m := message.New(nil)
			wire.PushEndpointID(m, core.EndpointID{Site: "a", Birth: 1}) // one element's worth of bytes
			m.PushUint32(count)
			func() {
				defer func() {
					if _, short := recover().(message.ShortRead); !short {
						t.Errorf("%s with count %d over one element did not panic with a short read", name, count)
					}
				}()
				pop(m)
			}()
		}
	}
}

// A list of view members costs its slice and no site strings: each
// identifier is the view's own. A stranger among them costs its string.
func TestPopKnownIDListAllocs(t *testing.T) {
	view := []core.EndpointID{{Site: "alpha", Birth: 1}, {Site: "beta", Birth: 2}, {Site: "gamma", Birth: 3}}
	stranger := core.EndpointID{Site: "delta", Birth: 4}
	for _, tc := range []struct {
		name   string
		list   []core.EndpointID
		allocs float64
	}{
		{"members", []core.EndpointID{view[2], view[0], view[1]}, 1},
		{"a non-member", []core.EndpointID{view[1], stranger}, 2},
		{"empty", nil, 0},
	} {
		src := message.New(nil)
		wire.PushIDList(src, tc.list)
		if got, want := src.HeaderLen(), wire.IDListLen(tc.list); got != want {
			t.Errorf("%s: IDListLen = %d, PushIDList pushed %d bytes", tc.name, want, got)
		}
		wireImage := src.Marshal()
		var got []core.EndpointID
		var m message.Message
		allocs := testing.AllocsPerRun(100, func() {
			if err := m.Attach(wireImage); err != nil {
				t.Fatal(err)
			}
			got = wire.PopKnownIDList(&m, view)
		})
		if allocs != tc.allocs {
			t.Errorf("%s: %v allocations, want %v", tc.name, allocs, tc.allocs)
		}
		if len(got) != len(tc.list) || m.HeaderLen() != 0 {
			t.Fatalf("%s: popped %v with %d header bytes left, want %v and none", tc.name, got, m.HeaderLen(), tc.list)
		}
		for i := range got {
			if got[i] != tc.list[i] {
				t.Errorf("%s: element %d is %v, want %v", tc.name, i, got[i], tc.list[i])
			}
		}
	}
}

// PopPairs reads a status vector where PopKnownIDList and PopCounts
// would have copied it out: the same pairs in the same order, nothing
// left on the stack, the headers underneath untouched, and nothing
// allocated while every identifier is a view member. Vectors whose
// lengths differ are popped whole and reported, not read.
func TestPopPairs(t *testing.T) {
	view := []core.EndpointID{{Site: "alpha", Birth: 1}, {Site: "", Birth: 2}, {Site: "gamma", Birth: 3}}
	stranger := core.EndpointID{Site: "delta", Birth: 4}
	for _, tc := range []struct {
		name   string
		ids    []core.EndpointID
		counts []uint64
		allocs float64
	}{
		{"members", []core.EndpointID{view[2], view[0], view[1]}, []uint64{7, 0, 1<<64 - 1}, 0},
		{"a non-member", []core.EndpointID{view[1], stranger}, []uint64{5, 6}, 1},
		{"empty", nil, nil, 0},
		{"more counts than identifiers", []core.EndpointID{view[0]}, []uint64{1, 2}, 0},
		{"more identifiers than counts", []core.EndpointID{view[0], view[1]}, []uint64{1}, 0},
	} {
		src := message.New(nil)
		src.PushUint32(0xDEAD) // the header underneath
		wire.PushCounts(src, tc.counts)
		wire.PushIDList(src, tc.ids)
		wireImage := src.Marshal()
		var ids []core.EndpointID
		var counts []uint64
		var matched bool
		var m message.Message
		allocs := testing.AllocsPerRun(100, func() {
			if err := m.Attach(wireImage); err != nil {
				t.Fatal(err)
			}
			ids, counts = ids[:0], counts[:0]
			matched = wire.PopPairs(&m, view, func(id core.EndpointID, count uint64) {
				ids, counts = append(ids, id), append(counts, count)
			})
		})
		if allocs != tc.allocs {
			t.Errorf("%s: %v allocations, want %v", tc.name, allocs, tc.allocs)
		}
		if m.HeaderLen() != 4 || m.PopUint32() != 0xDEAD {
			t.Fatalf("%s: the vector was not popped exactly", tc.name)
		}
		if want := len(tc.ids) == len(tc.counts); matched != want {
			t.Fatalf("%s: PopPairs = %v, want %v", tc.name, matched, want)
		}
		if !matched {
			if len(ids) != 0 {
				t.Errorf("%s: %d pairs read out of mismatched vectors", tc.name, len(ids))
			}
			continue
		}
		if !slices.Equal(ids, tc.ids) || !slices.Equal(counts, tc.counts) {
			t.Errorf("%s: read %v %v, want %v %v", tc.name, ids, counts, tc.ids, tc.counts)
		}
	}
}

// The Len functions size header storage before the pushes happen, so
// they must say exactly what the pushes take.
func TestLenFunctionsMatchWhatIsPushed(t *testing.T) {
	ids := []core.EndpointID{{Site: "a-site", Birth: 1}, {Site: "", Birth: 2}}
	for name, tc := range map[string]struct {
		push func(m *message.Message)
		want int
	}{
		"IDListLen":       {func(m *message.Message) { wire.PushIDList(m, ids) }, wire.IDListLen(ids)},
		"IDListLen empty": {func(m *message.Message) { wire.PushIDList(m, nil) }, wire.IDListLen(nil)},
		"CountsLen":       {func(m *message.Message) { wire.PushCounts(m, []uint64{1, 2, 3}) }, wire.CountsLen(3)},
	} {
		m := message.New(nil)
		tc.push(m)
		if m.HeaderLen() != tc.want {
			t.Errorf("%s = %d, %d bytes pushed", name, tc.want, m.HeaderLen())
		}
	}
}
