package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEndpointIDOlder(t *testing.T) {
	a := EndpointID{Site: "a", Birth: 1}
	b := EndpointID{Site: "b", Birth: 2}
	b1 := EndpointID{Site: "b", Birth: 1}
	if !a.Older(b) || b.Older(a) {
		t.Error("birth order broken")
	}
	if !a.Older(b1) || b1.Older(a) {
		t.Error("site tie-break broken")
	}
	if a.Older(a) {
		t.Error("id older than itself")
	}
	if !(EndpointID{}).IsZero() || a.IsZero() {
		t.Error("IsZero broken")
	}
}

func TestViewRankSortedByAge(t *testing.T) {
	old := EndpointID{Site: "z", Birth: 1}
	young := EndpointID{Site: "a", Birth: 9}
	v := NewView(ViewID{Seq: 1, Coord: old}, "g", []EndpointID{young, old})
	if v.Rank(old) != 0 || v.Rank(young) != 1 {
		t.Fatalf("ranks: old=%d young=%d, want 0/1 (age order)", v.Rank(old), v.Rank(young))
	}
	if v.Rank(EndpointID{Site: "x", Birth: 5}) != -1 {
		t.Error("rank of non-member != -1")
	}
	if v.Oldest() != old {
		t.Errorf("Oldest = %v", v.Oldest())
	}
}

func TestViewWithout(t *testing.T) {
	a := EndpointID{Site: "a", Birth: 1}
	b := EndpointID{Site: "b", Birth: 2}
	c := EndpointID{Site: "c", Birth: 3}
	v := NewView(ViewID{Seq: 1, Coord: a}, "g", []EndpointID{a, b, c})
	got := v.Without([]EndpointID{b})
	if len(got) != 2 || got[0] != a || got[1] != c {
		t.Fatalf("Without = %v", got)
	}
	if v.Size() != 3 {
		t.Error("Without mutated the view")
	}
}

func TestViewIDOlder(t *testing.T) {
	a := EndpointID{Site: "a", Birth: 1}
	b := EndpointID{Site: "b", Birth: 2}
	if !(ViewID{Seq: 1, Coord: b}).Older(ViewID{Seq: 2, Coord: a}) {
		t.Error("seq order broken")
	}
	if !(ViewID{Seq: 2, Coord: a}).Older(ViewID{Seq: 2, Coord: b}) {
		t.Error("coordinator tie-break broken")
	}
}

func TestViewCloneIndependent(t *testing.T) {
	a := EndpointID{Site: "a", Birth: 1}
	v := NewView(ViewID{Seq: 1, Coord: a}, "g", []EndpointID{a})
	c := v.Clone()
	c.Members[0] = EndpointID{Site: "x", Birth: 9}
	if v.Members[0] != a {
		t.Error("clone shares member storage")
	}
}

// TestHCPIDowncallsComplete pins the Table 1 vocabulary: each downcall
// of the paper has either an event kind or an explicit API method.
func TestHCPIDowncallsComplete(t *testing.T) {
	events := map[string]EventType{
		"cast": DCast, "send": DSend, "ack": DAck, "stable": DStable,
		"view": DView, "leave": DLeave, "flush": DFlush, "flush_ok": DFlushOK,
		"merge": DMerge, "merge_granted": DMergeGranted, "merge_denied": DMergeDenied,
		"destroy": DDestroy, "dump": DDump,
	}
	for name, et := range events {
		if !et.IsDowncall() {
			t.Errorf("%s is not classified as a downcall", name)
		}
		if et.String() != name {
			t.Errorf("downcall %v renders as %q, want %q", int(et), et.String(), name)
		}
	}
	// Table 1's endpoint / join / focus rows are constructors and
	// accessors: NewEndpoint, Endpoint.Join, Group.Focus — their
	// existence is checked by compilation in endpoint_test.go.
}

// TestHCPIUpcallsComplete pins the Table 2 vocabulary.
func TestHCPIUpcallsComplete(t *testing.T) {
	events := map[string]EventType{
		"MERGE_REQUEST": UMergeRequest, "MERGE_DENIED": UMergeDenied,
		"FLUSH": UFlush, "FLUSH_OK": UFlushOK, "VIEW": UView,
		"CAST": UCast, "SEND": USend, "LEAVE": ULeave, "DESTROY": UDestroy,
		"LOST_MESSAGE": ULostMessage, "STABLE": UStable, "PROBLEM": UProblem,
		"SYSTEM_ERROR": USystemError, "EXIT": UExit,
	}
	if len(events) != 14 {
		t.Fatalf("Table 2 has 14 upcalls, map has %d", len(events))
	}
	// Framework extension beyond the paper's Table 2: the φ-graded
	// SUSPECT upcall the failure detector feeds to adaptive layers.
	events["SUSPECT"] = USuspect
	for name, et := range events {
		if !et.IsUpcall() {
			t.Errorf("%s is not classified as an upcall", name)
		}
		if et.String() != name {
			t.Errorf("upcall %v renders as %q, want %q", int(et), et.String(), name)
		}
	}
}

func TestEventTypeStringUnknown(t *testing.T) {
	if s := EventType(999).String(); !strings.Contains(s, "999") {
		t.Errorf("unknown event type renders %q", s)
	}
}

// matrixCase is one row of the stability-matrix tables: raises written by
// rank, an optional rebase onto the next view, and the cells and row
// minima expected after.
type matrixCase struct {
	name    string
	members []EndpointID
	raises  []matrixRaise
	next    []EndpointID // the view rebased onto, if any
	want    [][]uint64   // the cells after, by rank in the last view
	min     []uint64     // MinStable of each row
}

type matrixRaise struct {
	i, j int
	n    uint64
	rose bool
}

func runMatrixCases(t *testing.T, cases []matrixCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewStabilityMatrix(tc.members)
			for _, r := range tc.raises {
				if rose := m.Raise(r.i, r.j, r.n); rose != r.rose {
					t.Errorf("Raise(%d, %d, %d) = %v, want %v", r.i, r.j, r.n, rose, r.rose)
				}
			}
			members := tc.members
			if tc.next != nil {
				old, before := m, m.String()
				m = m.Rebase(NewView(ViewID{Seq: 2, Coord: tc.next[0]}, "g", tc.next))
				if old.String() != before {
					t.Errorf("rebase edited the old matrix: %v, was %v", old, before)
				}
				members = tc.next
			}
			if !slices.Equal(m.Members, members) {
				t.Fatalf("members %v, want %v", m.Members, members)
			}
			if fmt.Sprint(m.Acked) != fmt.Sprint(tc.want) {
				t.Errorf("cells %v, want %v", m.Acked, tc.want)
			}
			for i, want := range tc.min {
				if got := m.MinStable(i); got != want {
					t.Errorf("MinStable(%d) = %d, want %d", i, got, want)
				}
			}
		})
	}
}

// TestStabilityMatrixMinStable: the matrix is written and read by rank.
// Raise only ever raises a cell and MinStable reads a row's minimum.
func TestStabilityMatrixMinStable(t *testing.T) {
	a := EndpointID{Site: "a", Birth: 1}
	b := EndpointID{Site: "b", Birth: 2}
	runMatrixCases(t, []matrixCase{
		{name: "raise", members: []EndpointID{a, b},
			raises: []matrixRaise{{0, 0, 5, true}, {0, 1, 3, true}, {1, 0, 2, true}},
			want:   [][]uint64{{5, 3}, {2, 0}}, min: []uint64{3, 0}},
		{name: "a lower or equal count changes nothing", members: []EndpointID{a, b},
			raises: []matrixRaise{{0, 1, 3, true}, {0, 1, 1, false}, {0, 1, 3, false}, {0, 1, 4, true}},
			want:   [][]uint64{{0, 4}, {0, 0}}, min: []uint64{0, 0}},
	})
}

// TestStabilityMatrixMergeFrom: at a view change the old matrix is merged
// into the next view's ranks by Rebase. It keeps the cells of the members
// who stay, wherever their rank moved, drops the departed, zeroes
// newcomers and leaves the old matrix as it was.
func TestStabilityMatrixMergeFrom(t *testing.T) {
	a := EndpointID{Site: "a", Birth: 1}
	b := EndpointID{Site: "b", Birth: 2}
	c := EndpointID{Site: "c", Birth: 3}
	d := EndpointID{Site: "d", Birth: 4}
	runMatrixCases(t, []matrixCase{
		{name: "rebase: the oldest leaves, the others move up, a newcomer joins",
			members: []EndpointID{a, b, c},
			raises:  []matrixRaise{{0, 1, 4, true}, {1, 0, 2, true}, {1, 1, 7, true}, {1, 2, 6, true}, {2, 2, 9, true}},
			next:    []EndpointID{b, c, d},
			want:    [][]uint64{{7, 6, 0}, {0, 9, 0}, {0, 0, 0}}, min: []uint64{0, 0, 0}},
		{name: "rebase: an older newcomer moves the others down",
			members: []EndpointID{b, c},
			raises:  []matrixRaise{{0, 0, 5, true}, {0, 1, 5, true}, {1, 0, 6, true}},
			next:    []EndpointID{a, b, c},
			want:    [][]uint64{{0, 0, 0}, {0, 5, 5}, {0, 6, 0}}, min: []uint64{0, 0, 0}},
		{name: "rebase onto the same members keeps every cell",
			members: []EndpointID{a, b},
			raises:  []matrixRaise{{0, 0, 3, true}, {0, 1, 2, true}, {1, 0, 1, true}, {1, 1, 1, true}},
			next:    []EndpointID{a, b},
			want:    [][]uint64{{3, 2}, {1, 1}}, min: []uint64{2, 1}},
	})
	var none *StabilityMatrix
	if m := none.Rebase(NewView(ViewID{Seq: 1, Coord: a}, "g", []EndpointID{a, b})); fmt.Sprint(m.Acked) != "[[0 0] [0 0]]" {
		t.Errorf("a rebase from no matrix: %v, want zeroes over a and b", m)
	}
}

// Property: merging a peer's matrix cell by cell with Raise, as STABLE
// and PINWHEEL do, leaves each cell at the larger of the two counts —
// no cell decreases.
func TestQuickMatrixRaiseMonotone(t *testing.T) {
	members := []EndpointID{{Site: "a", Birth: 1}, {Site: "b", Birth: 2}}
	f := func(cells, other [2][2]uint8) bool {
		m := NewStabilityMatrix(members)
		for i, row := range cells {
			for j, n := range row {
				m.Raise(i, j, uint64(n))
			}
		}
		for i, row := range other {
			for j, n := range row {
				if m.Raise(i, j, uint64(n)) != (n > cells[i][j]) || m.Acked[i][j] != uint64(max(cells[i][j], n)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExecutorNestedRunToCompletion(t *testing.T) {
	var x executor
	var order []int
	x.Do(func() {
		order = append(order, 1)
		x.Do(func() { order = append(order, 3) })
		order = append(order, 2)
	})
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

// TestRecordSizes pins the records a message travels in to their
// allocator size classes: a packet per arrival, a downcall per
// application cast, a send record per message a layer builds. A byte
// more on Event, or on one of them, moves every such allocation up a
// class; a field that only control events carry belongs in Detail,
// which costs the Event one pointer. The records whose storage holds a
// message's wire image — a cast's header room and body, a layer's
// message's header storage — take whatever their class leaves, so they
// fill it exactly, and that fill is the rule for which body fits: up to
// 72 bytes the 240-byte record. A larger body rides in the record of
// room alone, which must stay within 176 bytes, and a downcall with no
// message in the record of its event and group. A split message's
// fragments are records of an event and a message alone, allocated in
// one block (NewFragments), so each costs exactly the two.
func TestRecordSizes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		size, want uintptr
		exact      bool
	}{
		{"Event", unsafe.Sizeof(Event{}), 128, true},
		{"downcall", unsafe.Sizeof(downcall{}), 144, false},
		{"downcallRoom", unsafe.Sizeof(downcallRoom{}), 176, false},
		{"downcallSmall", unsafe.Sizeof(downcallSmall{}), 240, true},
		{"packet", unsafe.Sizeof(packet{}), 208, false},
		{"sendSmall", unsafe.Sizeof(sendSmall{}), 320, true},
		{"sendMedium", unsafe.Sizeof(sendMedium{}), 480, true},
		{"fragment", unsafe.Sizeof(fragment{}), 192, true},
	} {
		if tc.size > tc.want || tc.exact && tc.size != tc.want {
			t.Errorf("%s is %d bytes, want %d", tc.name, tc.size, tc.want)
		}
	}
}
