package nak

import (
	"slices"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/frag"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/total"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/wire"
)

// selfGroup joins n endpoints to one group over a 1 ms netsim link, each
// running spec, and counts the casts each application is delivered.
func selfGroup(t *testing.T, n int, spec func() core.StackSpec) (*netsim.Network, []*core.Group, []int) {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: 1, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	groups := make([]*core.Group, n)
	delivered := make([]int, n)
	for i := range groups {
		g, err := net.NewEndpoint(string(rune('a'+i))).Join("g", spec(), func(ev *core.Event) {
			if ev.Type == core.UCast {
				delivered[i]++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = g
	}
	return net, groups, delivered
}

// dataCasts taps every endpoint's wire and records, per sender, the
// destinations of each sequenced cast it hands the transport (COM's
// cast kind with NAK's data kind under it), and how many packets of any
// kind it hands the transport.
func dataCasts(t *testing.T, dir core.Directory, groups []*core.Group) (casts map[core.EndpointID][][]core.EndpointID, packets map[core.EndpointID]int) {
	casts, packets = map[core.EndpointID][][]core.EndpointID{}, map[core.EndpointID]int{}
	for _, g := range groups {
		self := g.Endpoint().ID()
		g.Endpoint().SetWireTap(func(dests []core.EndpointID, w []byte) {
			packets[self]++
			m, err := message.Unmarshal(w)
			if err != nil {
				t.Fatal(err)
			}
			wire.PopEndpointID(m, nil, dir)
			if m.PopUint8() == 1 && m.PopUint8() == kindData { // COM's kindCast
				casts[self] = append(casts[self], slices.Clone(dests))
			}
		})
	}
	return casts, packets
}

// Under MBRSHIP the sender's copy of a cast is delivered by MBRSHIP
// alone, and the cast is addressed to the other members: a singleton's
// cast hands the transport nothing, no data cast of a formed §7 group
// names its sender, NAK never opens the sender's own receive stream,
// and its cast ring drains on the peers' acknowledgements alone.
func TestNoOwnCastStreamUnderMembership(t *testing.T) {
	net, groups, delivered := selfGroup(t, 4, func() core.StackSpec {
		return core.StackSpec{total.New, mbrship.New, frag.New, New, com.New}
	})
	casts, packets := dataCasts(t, net, groups)
	net.RunFor(0) // each member installs its singleton view

	groups[0].Cast(message.New([]byte("alone")))
	net.RunFor(10 * time.Millisecond)
	if delivered[0] != 1 || packets[groups[0].Endpoint().ID()] != 0 {
		t.Fatalf("singleton cast: delivered %d times, %d packets to the transport; want 1 and 0",
			delivered[0], packets[groups[0].Endpoint().ID()])
	}

	if err := net.Form(groups, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	clear(delivered)
	clear(casts)
	const each = 5
	for i := 0; i < each; i++ {
		for _, g := range groups {
			g.Cast(message.New([]byte("x")))
		}
		net.RunFor(2 * time.Millisecond)
	}
	net.RunFor(500 * time.Millisecond)

	view := groups[0].View().Members
	for i, g := range groups {
		self := g.Endpoint().ID()
		if delivered[i] != each*len(groups) {
			t.Errorf("%v delivered %d casts, want %d", self, delivered[i], each*len(groups))
		}
		if len(casts[self]) == 0 {
			t.Errorf("%v sent no data cast", self)
		}
		others := slices.DeleteFunc(slices.Clone(view), func(e core.EndpointID) bool { return e == self })
		for _, dests := range casts[self] {
			if !slices.Equal(dests, others) {
				t.Errorf("%v sent a data cast to %v, want the other members %v", self, dests, others)
			}
		}
		n := g.Focus("NAK").(*Nak)
		if n.self.castIn != nil {
			t.Errorf("%v opened a receive stream of its own casts", self)
		}
		if n.castOut.next == 0 || n.castOut.held != 0 {
			t.Errorf("%v: %d casts sent, %d still held after the peers acknowledged them all",
				self, n.castOut.next, n.castOut.held)
		}
	}
}

// Without a membership layer nothing else delivers the sender's copy:
// NAK:COM casts to the whole view, the cast loops back through the
// fabric, and the sender's own receive stream delivers it.
func TestWaistCastsLoopBack(t *testing.T) {
	net, groups, delivered := selfGroup(t, 2, func() core.StackSpec { return core.StackSpec{New, com.New} })
	casts, _ := dataCasts(t, net, groups)
	view := core.InstallView(groups...).Members
	for i := 0; i < 3; i++ {
		groups[0].Cast(message.New([]byte("x")))
	}
	net.RunFor(100 * time.Millisecond)

	a := groups[0].Endpoint().ID()
	if delivered[0] != 3 || delivered[1] != 3 {
		t.Fatalf("delivered %v, want 3 at each member, the sender included", delivered)
	}
	if len(casts[a]) != 3 {
		t.Errorf("%d data casts on the wire, want 3", len(casts[a]))
	}
	for _, dests := range casts[a] {
		if !slices.Equal(dests, view) {
			t.Errorf("cast sent to %v, want the view %v", dests, view)
		}
	}
	if in := groups[0].Focus("NAK").(*Nak).self.castIn; in == nil || in.delivered != 3 {
		t.Errorf("the sender's own receive stream: %+v, want one that delivered 3", in)
	}
}
