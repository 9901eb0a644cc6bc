package integration

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/merge"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
)

// TestSixteenMemberAutoFormation scales the MERGE-driven formation: 16
// endpoints start as singletons and must collapse into one view with
// nothing but beacons, then communicate.
func TestSixteenMemberAutoFormation(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 251, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	const n = 16
	mk := func() core.StackSpec {
		return core.StackSpec{
			merge.New,
			mbrship.NewWith(
				mbrship.WithGossipPeriod(40*time.Millisecond),
				mbrship.WithFlushTimeout(600*time.Millisecond),
			),
			nak.NewWith(
				nak.WithStatusPeriod(25*time.Millisecond),
				nak.WithNakResend(15*time.Millisecond),
				nak.WithSuspectAfter(8),
			),
			com.New,
		}
	}
	cols := make([]*vsCollector, n)
	groups := make([]*core.Group, n)
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("n%02d", i)
		cols[i] = newVSCollector(site)
		ep := net.NewEndpoint(site)
		g, err := ep.Join("grp", mk(), cols[i].handler())
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = g
	}
	net.RunFor(30 * time.Second)

	ref := cols[0].lastView()
	if ref == nil || ref.Size() != n {
		t.Fatalf("formation incomplete: %v", ref)
	}
	for _, c := range cols[1:] {
		if v := c.lastView(); v == nil || v.ID != ref.ID {
			t.Fatalf("%s: view %v differs from %v", c.name, v, ref)
		}
	}

	// A multicast reaches all 16.
	seq := ref.ID.Seq
	net.At(net.Now(), func() { groups[5].Cast(message.New([]byte("sweet sixteen"))) })
	net.RunFor(2 * time.Second)
	for _, c := range cols {
		got := c.casts[seq]
		if len(got) != 1 || got[0] != "sweet sixteen" {
			t.Fatalf("%s: deliveries %v", c.name, got)
		}
	}
}
