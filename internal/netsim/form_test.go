package netsim_test

import (
	"strings"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
)

// TestFormJoinsAGroupOrNamesWhoIsMissing: Form merges three
// MBRSHIP:NAK:COM members into one view and returns nil; with the third
// member partitioned away from the start, it returns an error naming
// that member. Three NAK:COM members, which have no membership layer,
// get an installed view instead: Form returns nil and a cast from the
// first reaches the other two.
func TestFormJoinsAGroupOrNamesWhoIsMissing(t *testing.T) {
	for _, tc := range []struct {
		name       string
		membership bool
		cut        bool
	}{
		{"MBRSHIP:NAK:COM", true, false},
		{"MBRSHIP:NAK:COM cut", true, true},
		{"NAK:COM", false, false},
	} {
		net := netsim.New(netsim.Config{Seed: 3, DefaultLink: netsim.Link{Delay: time.Millisecond}})
		groups := make([]*core.Group, 3)
		casts := make([]int, 3)
		for i, site := range []string{"a", "b", "c"} {
			i := i
			spec := core.StackSpec{nak.New, com.New}
			if tc.membership {
				spec = append(core.StackSpec{mbrship.New}, spec...)
			}
			g, err := net.NewEndpoint(site).Join("grp", spec, func(ev *core.Event) {
				if ev.Type == core.UCast {
					casts[i]++
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			groups[i] = g
		}
		a, b, c := groups[0].Endpoint().ID(), groups[1].Endpoint().ID(), groups[2].Endpoint().ID()
		if tc.cut {
			net.Partition([]core.EndpointID{a, b}, []core.EndpointID{c})
		}
		err := net.Form(groups, 3*time.Second)
		switch {
		case !tc.cut && err != nil:
			t.Errorf("%s: formed group: %v", tc.name, err)
		case tc.cut && (err == nil || !strings.Contains(err.Error(), c.String())):
			t.Errorf("%s: with %v partitioned away: error %v, want one naming %v", tc.name, c, err, c)
		}
		if !tc.membership {
			net.At(net.Now(), func() { groups[0].Cast(message.New([]byte("hello"))) })
			net.RunFor(time.Second)
			if casts[1] != 1 || casts[2] != 1 {
				t.Errorf("%s: b and c delivered %d and %d casts from a, want 1 each", tc.name, casts[1], casts[2])
			}
		} else if v := groups[1].View(); v == nil || !v.Contains(a) {
			t.Errorf("%s: b's view %v lacks a", tc.name, v)
		}
	}
}
