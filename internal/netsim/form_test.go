package netsim_test

import (
	"strings"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/netsim"
)

// TestFormJoinsAGroupOrNamesWhoIsMissing: Form merges three
// MBRSHIP:NAK:COM members into one view and returns nil; with the third
// member partitioned away from the start, it returns an error naming
// that member.
func TestFormJoinsAGroupOrNamesWhoIsMissing(t *testing.T) {
	for _, cut := range []bool{false, true} {
		net := netsim.New(netsim.Config{Seed: 3, DefaultLink: netsim.Link{Delay: time.Millisecond}})
		groups := make([]*core.Group, 3)
		for i, site := range []string{"a", "b", "c"} {
			g, err := net.NewEndpoint(site).Join("grp", core.StackSpec{mbrship.New, nak.New, com.New}, nil)
			if err != nil {
				t.Fatal(err)
			}
			groups[i] = g
		}
		a, b, c := groups[0].Endpoint().ID(), groups[1].Endpoint().ID(), groups[2].Endpoint().ID()
		if cut {
			net.Partition([]core.EndpointID{a, b}, []core.EndpointID{c})
		}
		err := net.Form(groups, 3*time.Second)
		switch {
		case !cut && err != nil:
			t.Errorf("formed group: %v", err)
		case cut && (err == nil || !strings.Contains(err.Error(), c.String())):
			t.Errorf("with %v partitioned away: error %v, want one naming %v", c, err, c)
		}
		if v := groups[1].View(); v == nil || !v.Contains(a) {
			t.Errorf("cut=%v: b's view %v lacks a", cut, v)
		}
	}
}
