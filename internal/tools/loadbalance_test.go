package tools_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"horus/internal/core"
	"horus/internal/tools"
)

func balancerWith(t *testing.T, self core.EndpointID, members ...core.EndpointID) *tools.Balancer {
	t.Helper()
	b := tools.NewBalancer()
	ep := core.NewEndpoint(self, nullTransport{})
	g, err := ep.Join("g", core.StackSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Bind(g)
	b.Handler()(&core.Event{Type: core.UView, Detail: &core.Detail{View: view(1, members...)}})
	return b
}

func TestAllMembersAgreeOnOwnership(t *testing.T) {
	a, bb, c := id("a", 1), id("b", 2), id("c", 3)
	members := []core.EndpointID{a, bb, c}
	balancers := []*tools.Balancer{
		balancerWith(t, a, members...),
		balancerWith(t, bb, members...),
		balancerWith(t, c, members...),
	}
	for i := 0; i < 50; i++ {
		item := fmt.Sprintf("item-%d", i)
		ref, ok := balancers[0].Owner(item)
		if !ok {
			t.Fatal("no owner")
		}
		for _, b := range balancers[1:] {
			got, _ := b.Owner(item)
			if got != ref {
				t.Fatalf("%s: owners disagree: %v vs %v", item, got, ref)
			}
		}
		// Exactly one member claims it.
		mine := 0
		for _, b := range balancers {
			if b.Mine(item) {
				mine++
			}
		}
		if mine != 1 {
			t.Fatalf("%s: %d claimants", item, mine)
		}
	}
}

func TestRebalanceMovesOnlyDepartedItems(t *testing.T) {
	a, bb, c := id("a", 1), id("b", 2), id("c", 3)
	bal := balancerWith(t, a, a, bb, c)
	before := map[string]core.EndpointID{}
	for i := 0; i < 200; i++ {
		item := fmt.Sprintf("item-%d", i)
		o, _ := bal.Owner(item)
		before[item] = o
	}
	// c departs.
	bal.Handler()(&core.Event{Type: core.UView, Detail: &core.Detail{View: view(2, a, bb)}})
	for item, prev := range before {
		now, _ := bal.Owner(item)
		if prev != c && now != prev {
			t.Fatalf("%s moved from %v to %v though its owner survived", item, prev, now)
		}
		if prev == c && now == c {
			t.Fatalf("%s still owned by the departed member", item)
		}
	}
}

func TestSpreadIsReasonable(t *testing.T) {
	members := make([]core.EndpointID, 4)
	for i := range members {
		members[i] = id(fmt.Sprintf("m%d", i), uint64(i+1))
	}
	bal := balancerWith(t, members[0], members...)
	counts := map[core.EndpointID]int{}
	const items = 1000
	for i := 0; i < items; i++ {
		o, _ := bal.Owner(fmt.Sprintf("item-%d", i))
		counts[o]++
	}
	for _, m := range members {
		if counts[m] < items/4/2 || counts[m] > items/4*2 {
			t.Fatalf("member %v owns %d of %d (bad spread: %v)", m, counts[m], items, counts)
		}
	}
}

func TestNoOwnerBeforeView(t *testing.T) {
	b := tools.NewBalancer()
	if _, ok := b.Owner("x"); ok {
		t.Fatal("owner before any view")
	}
}

// Property: ownership is a pure function of (item, view) — stable
// across repeated queries and across instances.
func TestQuickOwnershipDeterministic(t *testing.T) {
	a, bb := id("a", 1), id("b", 2)
	b1 := balancerWith(t, a, a, bb)
	b2 := balancerWith(t, bb, a, bb)
	f := func(item string) bool {
		o1, ok1 := b1.Owner(item)
		o2, ok2 := b2.Owner(item)
		o3, ok3 := b1.Owner(item)
		return ok1 && ok2 && ok3 && o1 == o2 && o1 == o3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
