package core

import (
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

func TestStabilityMatrixMinStable(t *testing.T) {
	a := EndpointID{Site: "a", Birth: 1}
	b := EndpointID{Site: "b", Birth: 2}
	m := NewStabilityMatrix([]EndpointID{a, b})
	m.Set(a, a, 5)
	m.Set(a, b, 3)
	if got := m.MinStable(a); got != 3 {
		t.Errorf("MinStable = %d, want 3", got)
	}
	if got := m.MinStable(b); got != 0 {
		t.Errorf("MinStable(b) = %d, want 0", got)
	}
	// Monotonicity: lowering is ignored.
	m.Set(a, b, 1)
	if got := m.Get(a, b); got != 3 {
		t.Errorf("Set lowered a count: %d", got)
	}
	// Unknown members are ignored.
	m.Set(EndpointID{Site: "x", Birth: 9}, a, 7)
	if got := m.Get(EndpointID{Site: "x", Birth: 9}, a); got != 0 {
		t.Errorf("unknown member accepted: %d", got)
	}
}

func TestStabilityMatrixMergeFrom(t *testing.T) {
	a := EndpointID{Site: "a", Birth: 1}
	b := EndpointID{Site: "b", Birth: 2}
	m1 := NewStabilityMatrix([]EndpointID{a, b})
	m2 := NewStabilityMatrix([]EndpointID{a, b})
	m1.Set(a, b, 2)
	m2.Set(a, b, 5)
	m2.Set(b, a, 1)
	m1.MergeFrom(m2)
	if m1.Get(a, b) != 5 || m1.Get(b, a) != 1 {
		t.Errorf("merge result: %v", m1)
	}
}

// Property: MergeFrom is monotone — no cell decreases.
func TestQuickMatrixMergeMonotone(t *testing.T) {
	a := EndpointID{Site: "a", Birth: 1}
	b := EndpointID{Site: "b", Birth: 2}
	members := []EndpointID{a, b}
	f := func(cells [4]uint8, other [4]uint8) bool {
		m := NewStabilityMatrix(members)
		o := NewStabilityMatrix(members)
		idx := 0
		for _, origin := range members {
			for _, member := range members {
				m.Set(origin, member, uint64(cells[idx]))
				o.Set(origin, member, uint64(other[idx]))
				idx++
			}
		}
		before := m.Clone()
		m.MergeFrom(o)
		for _, origin := range members {
			for _, member := range members {
				if m.Get(origin, member) < before.Get(origin, member) {
					return false
				}
				want := before.Get(origin, member)
				if o.Get(origin, member) > want {
					want = o.Get(origin, member)
				}
				if m.Get(origin, member) != want {
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
// which costs the Event one pointer. The send records' header storage
// is whatever their class leaves, so they fill it exactly.
func TestRecordSizes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		size, want uintptr
		exact      bool
	}{
		{"Event", unsafe.Sizeof(Event{}), 136, true},
		{"downcall", unsafe.Sizeof(downcall{}), 176, false},
		{"packet", unsafe.Sizeof(packet{}), 208, false},
		{"sendSmall", unsafe.Sizeof(sendSmall{}), 320, true},
		{"sendMedium", unsafe.Sizeof(sendMedium{}), 480, true},
	} {
		if tc.size > tc.want || tc.exact && tc.size != tc.want {
			t.Errorf("%s is %d bytes, want %d", tc.name, tc.size, tc.want)
		}
	}
}
