// Totalorder: a replicated key-value store over the paper's §7 stack
// TOTAL:MBRSHIP:FRAG:NAK:COM, using the replicated-state-machine tool.
//
//	go run ./examples/totalorder
//
// Five replicas accept writes concurrently; the TOTAL layer's token
// serializes them, so every replica applies the identical sequence —
// including a replica that joins late and catches up by state
// transfer, and across the crash of the token holder.
package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/frag"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/layers/total"
	"horus/internal/netsim"
	"horus/internal/tools"
)

func stack() core.StackSpec {
	return core.StackSpec{
		total.NewWith(total.WithRequestRetry(50 * time.Millisecond)),
		mbrship.NewWith(
			mbrship.WithGossipPeriod(40*time.Millisecond),
			mbrship.WithFlushTimeout(500*time.Millisecond),
		),
		frag.NewWithSize(1024),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithSuspectAfter(6),
		),
		com.New,
	}
}

// replica is one kv store member.
type replica struct {
	name string
	data map[string]string
	log  []string
	rsm  *tools.RSM
	g    *core.Group
}

func newReplica(net *netsim.Network, name string, creator bool) *replica {
	r := &replica{name: name, data: map[string]string{}}
	apply := func(cmd []byte) {
		r.log = append(r.log, string(cmd))
		if k, v, ok := strings.Cut(string(cmd), "="); ok {
			r.data[k] = v
		}
	}
	snapshot := func() []byte { return []byte(strings.Join(r.log, "\n")) }
	restore := func(state []byte) {
		for _, cmd := range strings.Split(string(state), "\n") {
			if cmd != "" {
				apply([]byte(cmd))
			}
		}
	}
	r.rsm = tools.NewRSM(apply, snapshot, restore)
	ep := net.NewEndpoint(name)
	g, err := ep.Join("kv", stack(), r.rsm.Handler())
	if err != nil {
		panic(err)
	}
	r.g = g
	r.rsm.Bind(g)
	if creator {
		r.rsm.Bootstrap()
	}
	return r
}

func main() {
	net := netsim.New(netsim.Config{Seed: 7, DefaultLink: netsim.Link{
		Delay: time.Millisecond, Jitter: 2 * time.Millisecond, LossRate: 0.05,
	}})

	replicas := make([]*replica, 4)
	groups := make([]*core.Group, len(replicas))
	for i := range replicas {
		replicas[i] = newReplica(net, fmt.Sprintf("r%d", i), i == 0)
		groups[i] = replicas[i].g
	}
	if err := net.Form(groups, 3*time.Second); err != nil {
		panic(err)
	}
	fmt.Printf("group formed: %v\n", replicas[0].g.View())

	// Concurrent writes from every replica.
	base := net.Now()
	for i := 0; i < 20; i++ {
		i := i
		net.At(base+time.Duration(i)*4*time.Millisecond, func() {
			r := replicas[i%len(replicas)]
			r.rsm.Propose([]byte(fmt.Sprintf("key%d=%s.%d", i%5, r.name, i)))
		})
	}
	net.RunFor(2 * time.Second)

	// A latecomer joins and catches up by state transfer.
	late := newReplica(net, "late", false)
	replicas = append(replicas, late)
	if err := net.Form([]*core.Group{replicas[0].g, late.g}, 3*time.Second); err != nil {
		panic(err)
	}

	// The token holder (oldest member) crashes mid-stream.
	holder := replicas[0]
	fmt.Printf("crashing %s (initial token holder)\n", holder.name)
	base = net.Now()
	for i := 20; i < 30; i++ {
		i := i
		net.At(base+time.Duration(i-20)*4*time.Millisecond, func() {
			r := replicas[1+(i%3)]
			r.rsm.Propose([]byte(fmt.Sprintf("key%d=%s.%d", i%5, r.name, i)))
		})
	}
	net.At(base+20*time.Millisecond, func() { net.Crash(holder.g.Endpoint().ID()) })
	net.RunFor(5 * time.Second)

	fmt.Println("\nfinal state at every surviving replica:")
	for _, r := range replicas[1:] {
		keys := make([]string, 0, len(r.data))
		for k := range r.data {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			parts = append(parts, k+"="+r.data[k])
		}
		fmt.Printf("  %-5s applied=%2d  %s\n", r.name, len(r.log), strings.Join(parts, " "))
	}

	ref := replicas[1]
	agree := true
	for _, r := range replicas[2:] {
		if strings.Join(r.log, ";") != strings.Join(ref.log, ";") {
			agree = false
		}
	}
	fmt.Printf("\nreplicated logs identical across survivors: %v\n", agree)
}
