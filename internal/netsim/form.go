package netsim

import (
	"fmt"
	"time"

	"horus/internal/core"
	"horus/internal/property"
)

// Form joins groups into one view and runs the network for within.
//
// A stack with a layer whose Table 3 row provides consistent views
// (P15: MBRSHIP, BMS) forms its views by merging, the way a Horus
// application does (paper §11): groups[i] asks groups[0]'s endpoint to
// merge i×50 ms from now, and asks again every 150 ms while its view
// has fewer than len(groups) members — a coordinator grants one merge
// at a time and denies the rest. Form then returns an error naming the
// first member whose view lacks one of the groups' endpoints. A larger
// view is fine: MERGE may bring other members in.
//
// Any other stack takes its view from outside (§5): Form installs it
// with core.InstallView and returns nil.
func (n *Network) Form(groups []*core.Group, within time.Duration) error {
	if !formsViews(groups[0]) {
		core.InstallView(groups...)
		n.RunFor(within)
		return nil
	}
	contact := groups[0].Endpoint().ID()
	for i := 1; i < len(groups); i++ {
		g := groups[i]
		var ask func()
		ask = func() {
			if v := g.View(); v != nil && v.Size() >= len(groups) {
				return
			}
			g.Merge(contact)
			n.At(n.Now()+150*time.Millisecond, ask)
		}
		n.At(n.Now()+time.Duration(i)*50*time.Millisecond, ask)
	}
	n.RunFor(within)
	for _, g := range groups {
		v := g.View()
		for _, h := range groups {
			if id := h.Endpoint().ID(); v == nil || !v.Contains(id) {
				return fmt.Errorf("member %v: view %v lacks %v after %v", g.Endpoint().ID(), v, id, within)
			}
		}
	}
	return nil
}

// formsViews reports whether a layer of g's stack provides consistent
// views (P15) by its Table 3 row.
func formsViews(g *core.Group) bool {
	for _, row := range property.Table3 {
		if row.Provides.Has(property.P15) && g.Focus(row.Name) != nil {
			return true
		}
	}
	return false
}
