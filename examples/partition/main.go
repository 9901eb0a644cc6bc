// Partition: the extended-virtual-synchrony story of §9. A four-member
// group is split by a network partition; both sides keep making
// progress in their own views; when the network heals, the MERGE
// layer's beacons discover the concurrent views and collapse them back
// into one — automatically, with no application involvement.
//
//	go run ./examples/partition
package main

import (
	"fmt"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/merge"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
)

func stack() core.StackSpec {
	return core.StackSpec{
		merge.New,
		mbrship.NewWith(
			mbrship.WithGossipPeriod(40*time.Millisecond),
			mbrship.WithFlushTimeout(500*time.Millisecond),
		),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithSuspectAfter(6),
		),
		com.New,
	}
}

func main() {
	net := netsim.New(netsim.Config{Seed: 99, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	names := []string{"n1", "n2", "n3", "n4"}
	eps := make([]*core.Endpoint, len(names))
	groups := make([]*core.Group, len(names))
	views := make([]*core.View, len(names))
	for i, name := range names {
		i, name := i, name
		eps[i] = net.NewEndpoint(name)
		g, err := eps[i].Join("pd", stack(), func(ev *core.Event) {
			switch ev.Type {
			case core.UView:
				views[i] = ev.View
				fmt.Printf("t=%-6v %s view %v\n", net.Now().Round(time.Millisecond), name, ev.View)
			case core.UCast:
				fmt.Printf("t=%-6v %s got %q from %s\n", net.Now().Round(time.Millisecond),
					name, ev.Msg.Body(), ev.Source.Site)
			}
		})
		if err != nil {
			panic(err)
		}
		groups[i] = g
	}

	fmt.Println("== formation: the MERGE layer discovers everyone automatically ==")
	net.RunFor(4 * time.Second)

	fmt.Println("\n== partition: {n1,n2} | {n3,n4} ==")
	net.Partition(
		[]core.EndpointID{eps[0].ID(), eps[1].ID()},
		[]core.EndpointID{eps[2].ID(), eps[3].ID()},
	)
	net.RunFor(2 * time.Second)

	fmt.Println("\n== both sides make independent progress ==")
	net.At(net.Now(), func() { groups[0].Cast(message.New([]byte("left side says hi"))) })
	net.At(net.Now()+time.Millisecond, func() { groups[2].Cast(message.New([]byte("right side says hi"))) })
	net.RunFor(time.Second)

	fmt.Println("\n== heal: beacons find the concurrent views and merge them ==")
	net.Heal()
	net.RunFor(6 * time.Second)

	fmt.Println("\n== one group again ==")
	net.At(net.Now(), func() { groups[3].Cast(message.New([]byte("all together now"))) })
	net.RunFor(time.Second)

	for i, v := range views {
		fmt.Printf("%s final view: %v\n", names[i], v)
	}
}
