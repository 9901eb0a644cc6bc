package wire_test

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/wire"
)

// names is a core.Directory over a fixed set of identifiers, as a
// fabric that assigned their births is.
type names []core.EndpointID

func (n names) Named(birth uint64) (core.EndpointID, bool) {
	for _, id := range n {
		if id.Birth == birth {
			return id, true
		}
	}
	return core.EndpointID{}, false
}

// encodings are the two ways an identifier travels: whole, through a
// transport that names nothing, and as its birth alone, through one
// that names it.
func encodings(ids ...core.EndpointID) map[string]core.Directory {
	return map[string]core.Directory{"whole": nil, "birth alone": names(ids)}
}

// An identifier round-trips in either encoding, and the one its
// directory names takes a byte while its birth is below 64.
func TestEndpointIDRoundTrip(t *testing.T) {
	id := core.EndpointID{Site: "host-7", Birth: 42}
	for _, tc := range []struct {
		name string
		dir  core.Directory
		size int
	}{
		{"whole", nil, 1 + 1 + len(id.Site)},
		{"birth alone", names{id}, 1},
		{"a directory naming another site", names{{Site: "host-8", Birth: 42}}, 1 + 1 + len(id.Site)},
	} {
		m := message.New(nil)
		wire.PushEndpointID(m, id, tc.dir)
		if m.HeaderLen() != tc.size || wire.IDLen(id, tc.dir) != tc.size {
			t.Errorf("%s: pushed %d bytes, IDLen %d, want %d", tc.name, m.HeaderLen(), wire.IDLen(id, tc.dir), tc.size)
		}
		if got := wire.PopEndpointID(m, nil, tc.dir); got != id || m.HeaderLen() != 0 {
			t.Errorf("%s: got %v, want %v", tc.name, got, id)
		}
	}
}

// TestPopKnownEndpointID: a known identifier resolves to the same value
// without allocating (same site, different birth is a different
// endpoint), and so does one the directory names; an unknown whole one
// still decodes, at the cost of its string; a birth alone that neither
// names is line damage, core.Unnamed, never an invented identity.
func TestPopKnownEndpointID(t *testing.T) {
	known := []core.EndpointID{{Site: "host-7", Birth: 41}, {Site: "host-7", Birth: 42}, {Site: "host-8", Birth: 43}}
	named := core.EndpointID{Site: "host-9", Birth: 44}
	dir := names{known[0], known[1], known[2], named}
	m := message.New(nil)
	pop := func(id core.EndpointID, dir core.Directory) (got core.EndpointID, allocs float64) {
		allocs = testing.AllocsPerRun(10, func() {
			wire.PushEndpointID(m, id, dir)
			got = wire.PopEndpointID(m, known, dir)
		})
		return got, allocs
	}
	for name, dir := range encodings(known...) {
		for _, id := range known {
			if got, allocs := pop(id, dir); got != id || allocs != 0 {
				t.Errorf("%s: known %v: got %v with %v allocations, want 0", name, id, got, allocs)
			}
		}
	}
	if got, allocs := pop(named, dir); got != named || allocs != 0 {
		t.Errorf("named %v: got %v with %v allocations, want 0", named, got, allocs)
	}
	stranger := core.EndpointID{Site: "host-7", Birth: 99}
	if got, allocs := pop(stranger, dir); got != stranger || allocs != 1 {
		t.Errorf("unknown %v: got %v with %v allocations, want 1", stranger, got, allocs)
	}

	wire.PushEndpointID(m, named, dir)
	defer func() {
		if r := recover(); r != (core.Unnamed{Birth: named.Birth}) {
			t.Errorf("a birth alone nothing names: recovered %v, want core.Unnamed", r)
		}
	}()
	got := wire.PopEndpointID(m, known, nil)
	t.Errorf("a birth alone nothing names popped as %v", got)
}

// TestPopKnownViewID: a view tag reads back in either encoding, and one
// whose coordinator is known costs no allocation.
func TestPopKnownViewID(t *testing.T) {
	known := []core.EndpointID{{Site: "host-7", Birth: 41}, {Site: "host-8", Birth: 43}}
	x := core.EndpointID{Site: "x", Birth: 2}
	for name, dir := range encodings(append(known, x)...) {
		m := message.New(nil)
		for _, id := range []core.ViewID{{Seq: 5, Coord: known[1]}, {Seq: 1 << 40, Coord: x}} {
			wire.PushViewID(m, id, dir)
			plain := slices.Clone(m.Header())
			if got := wire.PopViewID(m, known, dir); got != id {
				t.Errorf("%s: PopViewID with known: got %v, want %v", name, got, id)
			}
			if got := wire.PopViewID(message.FromParts(plain, nil), nil, dir); got != id {
				t.Errorf("%s: PopViewID: got %v, want %v", name, got, id)
			}
		}
		id := core.ViewID{Seq: 9, Coord: known[0]}
		if allocs := testing.AllocsPerRun(10, func() {
			wire.PushViewID(m, id, dir)
			wire.PopViewID(m, known, dir)
		}); allocs != 0 {
			t.Errorf("%s: a view tag with a known coordinator: %v allocations, want 0", name, allocs)
		}
	}
}

func TestIDListRoundTrip(t *testing.T) {
	ids := []core.EndpointID{
		{Site: "a", Birth: 1},
		{Site: "b", Birth: 2},
		{Site: "c", Birth: 3},
	}
	// A directory naming some of the list: its elements travel both ways.
	for name, dir := range encodings(ids[0], ids[2]) {
		m := message.New(nil)
		wire.PushIDList(m, ids, dir)
		if got := wire.PopIDList(m, nil, dir); !slices.Equal(got, ids) || m.HeaderLen() != 0 {
			t.Fatalf("%s: got %v, want %v (order preserved)", name, got, ids)
		}
	}
}

func TestEmptyIDList(t *testing.T) {
	m := message.New(nil)
	wire.PushIDList(m, nil, nil)
	if got := wire.PopIDList(m, nil, nil); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestViewRoundTrip(t *testing.T) {
	a := core.EndpointID{Site: "a", Birth: 1}
	b := core.EndpointID{Site: "b", Birth: 2}
	v := core.NewView(core.ViewID{Seq: 9, Coord: a}, "grp", []core.EndpointID{a, b})
	for name, dir := range encodings(a, b) {
		m := message.New(nil)
		wire.PushView(m, v, dir)
		got := wire.PopView(m, nil, dir)
		if got.ID != v.ID || got.Group != v.Group || !slices.Equal(got.Members, v.Members) || m.HeaderLen() != 0 {
			t.Fatalf("%s: got %v, want %v", name, got, v)
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

// Any identifier round-trips in either encoding: births are below 2^63
// (core.EndpointID.Birth), and one that is not is a program bug the
// push refuses.
func TestQuickIDRoundTrip(t *testing.T) {
	f := func(site string, birth uint64, named bool) bool {
		id := core.EndpointID{Site: site, Birth: birth >> 1}
		var dir core.Directory
		if named {
			dir = names{id}
		}
		m := message.New(nil)
		wire.PushEndpointID(m, id, dir)
		return wire.PopEndpointID(m, nil, dir) == id && m.HeaderLen() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a birth of 2^63 pushed")
		}
	}()
	wire.PushEndpointID(message.New(nil), core.EndpointID{Site: "a", Birth: 1 << 63}, nil)
}

func TestStackedEncodingsPopInReverse(t *testing.T) {
	// Layers push multiple structures; they must pop cleanly in
	// reverse, leaving lower layers' headers untouched.
	a := core.EndpointID{Site: "a", Birth: 1}
	for name, dir := range encodings(a) {
		m := message.New([]byte("body"))
		m.PushUint(0xDEAD) // a lower layer's header
		wire.PushIDList(m, []core.EndpointID{a}, dir)
		wire.PushViewID(m, core.ViewID{Seq: 3, Coord: a}, dir)
		if got := wire.PopViewID(m, nil, dir); got.Seq != 3 || got.Coord != a {
			t.Fatalf("%s: view id mismatch", name)
		}
		if got := wire.PopIDList(m, nil, dir); len(got) != 1 || got[0] != a {
			t.Fatalf("%s: id list mismatch", name)
		}
		if got := m.PopUint(); got != 0xDEAD {
			t.Fatalf("%s: lower header disturbed", name)
		}
	}
}

// A list count damaged in flight must fail the way a pop past the end of
// the headers does — a message.ShortRead panic, which the endpoint turns
// into a dropped packet — and before it sizes an allocation or becomes
// an int: 2^32-1 identifiers would be 100 GB, and 2^64-1 is a negative
// int.
func TestGarbledListCountPanicsBeforeAllocating(t *testing.T) {
	a := core.EndpointID{Site: "a", Birth: 1}
	for name, pop := range map[string]func(*message.Message){
		"PopIDList": func(m *message.Message) { wire.PopIDList(m, nil, nil) },
		"PopIDList with known": func(m *message.Message) {
			wire.PopIDList(m, []core.EndpointID{a}, nil)
		},
		"PopCounts": func(m *message.Message) { wire.PopCounts(m) },
	} {
		for _, count := range []uint64{4, 1 << 20, 1<<32 - 1, 1<<63 + 1, 1<<64 - 1} {
			m := message.New(nil)
			wire.PushEndpointID(m, a, nil) // one identifier, three bytes
			m.PushUint(count)
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
// identifier is the view's own, or the directory's. A stranger among
// them costs its string.
func TestPopKnownIDListAllocs(t *testing.T) {
	view := []core.EndpointID{{Site: "alpha", Birth: 1}, {Site: "beta", Birth: 2}, {Site: "gamma", Birth: 3}}
	named := core.EndpointID{Site: "epsilon", Birth: 5}
	stranger := core.EndpointID{Site: "delta", Birth: 4}
	dir := core.Directory(names{view[0], view[1], view[2], named})
	for _, tc := range []struct {
		name   string
		list   []core.EndpointID
		allocs float64
	}{
		{"members", []core.EndpointID{view[2], view[0], view[1]}, 1},
		{"a member and one the directory names", []core.EndpointID{view[1], named}, 1},
		{"a stranger", []core.EndpointID{view[1], stranger}, 2},
		{"empty", nil, 0},
	} {
		src := message.New(nil)
		wire.PushIDList(src, tc.list, dir)
		if got, want := src.HeaderLen(), wire.IDListLen(tc.list, dir); got != want {
			t.Errorf("%s: IDListLen = %d, PushIDList pushed %d bytes", tc.name, want, got)
		}
		wireImage := src.Marshal()
		var got []core.EndpointID
		var m message.Message
		allocs := testing.AllocsPerRun(100, func() {
			if err := m.Attach(wireImage); err != nil {
				t.Fatal(err)
			}
			got = wire.PopIDList(&m, view, dir)
		})
		if allocs != tc.allocs {
			t.Errorf("%s: %v allocations, want %v", tc.name, allocs, tc.allocs)
		}
		if !slices.Equal(got, tc.list) || m.HeaderLen() != 0 {
			t.Fatalf("%s: popped %v with %d header bytes left, want %v and none", tc.name, got, m.HeaderLen(), tc.list)
		}
	}
}

// The Len functions size header storage before the pushes happen, so
// they must say exactly what the pushes take, in either encoding.
func TestLenFunctionsMatchWhatIsPushed(t *testing.T) {
	ids := []core.EndpointID{{Site: "a-site", Birth: 1}, {Site: "", Birth: 2}, {Site: strings.Repeat("s", 200), Birth: 1 << 40}, {Site: "b", Birth: 63}, {Site: "c", Birth: 64}}
	counts := []uint64{0, 127, 128, 1<<14 - 1, 1 << 14, 1<<64 - 1}
	for enc, dir := range encodings(ids...) {
		for name, tc := range map[string]struct {
			push func(m *message.Message)
			want int
		}{
			"IDListLen":       {func(m *message.Message) { wire.PushIDList(m, ids, dir) }, wire.IDListLen(ids, dir)},
			"IDListLen empty": {func(m *message.Message) { wire.PushIDList(m, nil, dir) }, wire.IDListLen(nil, dir)},
			"CountsLen":       {func(m *message.Message) { wire.PushCounts(m, counts) }, wire.CountsLen(counts)},
			"CountsLen empty": {func(m *message.Message) { wire.PushCounts(m, nil) }, wire.CountsLen(nil)},
		} {
			m := message.New(nil)
			tc.push(m)
			if m.HeaderLen() != tc.want {
				t.Errorf("%s, %s = %d, %d bytes pushed", enc, name, tc.want, m.HeaderLen())
			}
		}
	}
}

// The densest lists a sender can push — identifiers its transport names
// with a birth below 64, zero counts — take a byte an element, and the
// count check must let them through.
func TestDensestListsPop(t *testing.T) {
	ids := make(names, 63)
	for i := range ids {
		ids[i] = core.EndpointID{Site: "s", Birth: uint64(i + 1)}
	}
	counts := make([]uint64, 100)
	m := message.New(nil)
	wire.PushCounts(m, counts)
	wire.PushIDList(m, ids, ids)
	if got, want := m.HeaderLen(), 1+len(ids)+1+len(counts); got != want {
		t.Fatalf("vector takes %d bytes, want %d", got, want)
	}
	if got := wire.PopIDList(m, nil, ids); !slices.Equal(got, ids) {
		t.Fatalf("PopIDList = %v", got)
	}
	if got := wire.PopCounts(m); !slices.Equal(got, counts) || m.HeaderLen() != 0 {
		t.Fatalf("PopCounts = %v with %d bytes left", got, m.HeaderLen())
	}
}
