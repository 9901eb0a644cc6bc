// Workqueue: the load-balancing tool of §1. Four workers share a queue
// of 16 tasks with zero coordination messages: each worker derives the
// identical task→owner assignment from the agreed view alone
// (consistent views, P15, do all the work). When a worker crashes, the
// view change rebalances — and only the dead worker's tasks move.
//
//	go run ./examples/workqueue
package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/netsim"
	"horus/internal/tools"
)

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

type worker struct {
	name string
	bal  *tools.Balancer
	g    *core.Group
}

func main() {
	net := netsim.New(netsim.Config{Seed: 4, DefaultLink: netsim.Link{Delay: time.Millisecond}})

	tasks := make([]string, 16)
	for i := range tasks {
		tasks[i] = fmt.Sprintf("task-%02d", i)
	}

	workers := make([]*worker, 4)
	groups := make([]*core.Group, len(workers))
	for i := range workers {
		w := &worker{name: fmt.Sprintf("w%d", i), bal: tools.NewBalancer()}
		ep := net.NewEndpoint(w.name)
		g, err := ep.Join("wq", stack(), w.bal.Handler())
		if err != nil {
			panic(err)
		}
		w.g = g
		w.bal.Bind(g)
		workers[i], groups[i] = w, g
	}
	if err := net.Form(groups, 2*time.Second); err != nil {
		panic(err)
	}

	show := func(tag string, ws []*worker) {
		fmt.Printf("== %s ==\n", tag)
		assign := map[string][]string{}
		for _, task := range tasks {
			owner, ok := ws[0].bal.Owner(task)
			if !ok {
				panic("no owner")
			}
			// Every worker agrees — check it.
			for _, w := range ws[1:] {
				if o, _ := w.bal.Owner(task); o != owner {
					panic("assignment disagreement")
				}
			}
			assign[owner.Site] = append(assign[owner.Site], task)
		}
		names := make([]string, 0, len(assign))
		for n := range assign {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-3s handles %2d: %s\n", n, len(assign[n]), strings.Join(assign[n], " "))
		}
	}

	show("four workers, no coordination messages", workers)

	fmt.Println("\nw2 crashes; the view change rebalances (only w2's tasks move)")
	before := map[string]core.EndpointID{}
	for _, task := range tasks {
		before[task], _ = workers[0].bal.Owner(task)
	}
	net.Crash(workers[2].g.Endpoint().ID())
	net.RunFor(3 * time.Second)

	survivors := []*worker{workers[0], workers[1], workers[3]}
	show("three survivors", survivors)

	moved, stayed := 0, 0
	for _, task := range tasks {
		now, _ := survivors[0].bal.Owner(task)
		if now == before[task] {
			stayed++
		} else {
			moved++
		}
	}
	fmt.Printf("\n%d tasks moved (the dead worker's), %d stayed put\n", moved, stayed)
}
