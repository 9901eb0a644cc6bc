// Quickstart: three processes form a group by merging, multicast with
// virtual synchrony, and survive a crash.
//
//	go run ./examples/quickstart
//
// The demo runs on the deterministic network simulator, so the output
// is reproducible; examples/sockets runs a group over loopback UDP
// (horus/internal/chaosnet) at wall-clock speed instead.
package main

import (
	"fmt"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
)

// stack is the smallest virtually synchronous composition:
// MBRSHIP over reliable FIFO (NAK) over the raw network (COM).
func stack() core.StackSpec {
	return core.StackSpec{
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
	net := netsim.New(netsim.Config{Seed: 2026, DefaultLink: netsim.Link{
		Delay:    time.Millisecond,
		LossRate: 0.05, // NAK repairs this transparently
	}})

	names := []string{"alice", "bob", "carol"}
	groups := make([]*core.Group, len(names))
	for i, name := range names {
		ep := net.NewEndpoint(name)
		g, err := ep.Join("demo", stack(), func(ev *core.Event) {
			switch ev.Type {
			case core.UCast:
				fmt.Printf("t=%-6v %-5s got %q from %s\n",
					net.Now().Round(time.Millisecond), name, ev.Msg.Body(), ev.Source.Site)
			case core.UView:
				fmt.Printf("t=%-6v %-5s view is now %v\n",
					net.Now().Round(time.Millisecond), name, ev.View)
			}
		})
		if err != nil {
			panic(err)
		}
		groups[i] = g
	}

	// Joining a group is merging views (§11): bob and carol merge into
	// alice's view. Form asks again until each view is complete —
	// merges are granted one at a time.
	if err := net.Form(groups, 2*time.Second); err != nil {
		panic(err)
	}

	fmt.Println("--- everyone casts ---")
	base := net.Now()
	for i, g := range groups {
		i, g := i, g
		net.At(base+time.Duration(i)*10*time.Millisecond, func() {
			g.Cast(message.New([]byte(fmt.Sprintf("hello from %s", names[i]))))
		})
	}
	net.RunFor(time.Second)

	fmt.Println("--- carol crashes; the view heals around her ---")
	net.Crash(groups[2].Endpoint().ID())
	net.RunFor(2 * time.Second)

	net.At(net.Now(), func() {
		groups[0].Cast(message.New([]byte("life goes on")))
	})
	net.RunFor(time.Second)
}
