// Package horus_test holds the §10 performance experiments as Go
// benchmarks — one per claim in the paper's "Performance and Overhead"
// section. Run with:
//
//	go test -bench=. -benchmem .
//
// EXPERIMENTS.md records representative results next to the paper's
// numbers. Protocol-level experiments (latency under loss, stability
// convergence, view-change cost) live in cmd/horus-bench, where
// virtual time makes them deterministic.
package horus_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/chksum"
	"horus/internal/layers/com"
	"horus/internal/layers/frag"
	"horus/internal/layers/hbeat"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/layers/switchp"
	"horus/internal/layers/total"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/property"
	"horus/internal/sched"
	"horus/internal/stackreg"
)

// nopLayer passes everything through: the cheapest possible layer,
// isolating the cost of one boundary crossing (§10 item 1: "an
// indirect procedure call each time a layer boundary is crossed").
type nopLayer struct{ core.Base }

func (n *nopLayer) Name() string { return "NOP" }

// loopLayer reflects downcalls back up, as if the network delivered
// them instantly.
type loopLayer struct {
	core.Base
	src core.EndpointID
}

func (l *loopLayer) Name() string { return "LOOP" }
func (l *loopLayer) Down(ev *core.Event) {
	if ev.Type != core.DCast && ev.Type != core.DSend {
		return
	}
	up := core.UCast
	if ev.Type == core.DSend {
		up = core.USend
	}
	l.Ctx.Up(&core.Event{Type: up, Msg: ev.Msg, Source: l.src})
}

// countLayer counts CAST deliveries reaching the top.
type countLayer struct {
	core.Base
	count *int
}

func (c *countLayer) Name() string { return "COUNT" }
func (c *countLayer) Up(ev *core.Event) {
	if ev.Type == core.UCast {
		*c.count++
	}
}

// nullTransport swallows wire bytes: it isolates stack traversal cost
// from fabric cost (netsim allocates per delivered packet, which would
// mask what the cast itself allocates).
type nullTransport struct{}

func (nullTransport) Send(from core.EndpointID, group core.GroupAddr, dests []core.EndpointID, wire []byte) {
}
func (nullTransport) SetTimer(d time.Duration, fn func()) (cancel func()) { return func() {} }
func (nullTransport) Now() time.Duration                                  { return 0 }

// micro is one micro-benchmark, set up: op is one operation, on the
// endpoint whose event queue the operations run on (nil when op drives
// the simulator itself), and done, when set, how many operations have
// had their effect. The Benchmark function times b.N operations;
// TestMicroAllocs counts the allocations of the same one.
type micro struct {
	on   *core.Endpoint
	op   func()
	done func() int
}

// each runs fn, a loop over m.op, where the operations must run.
func (m micro) each(fn func()) {
	if m.on != nil {
		m.on.Do(fn)
	} else {
		fn()
	}
}

func (m micro) bench(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	m.each(func() {
		for i := 0; i < b.N; i++ {
			m.op()
		}
	})
	b.StopTimer()
	m.check(b, b.N)
}

// check fails tb unless each of the n operations run took effect.
func (m micro) check(tb testing.TB, n int) {
	tb.Helper()
	if m.done != nil && m.done() != n {
		tb.Fatalf("%d of %d operations took effect", m.done(), n)
	}
}

// TestMicroAllocs is the allocation gate over the micro-benchmarks:
// each sub-benchmark's one operation, counted by testing.AllocsPerRun,
// must allocate no more than its ceiling. The counts are exact, not
// statistical — Cast is the application's Message and its downcall
// record and nothing else. A sub-benchmark without a ceiling fails,
// and so does a ceiling whose sub-benchmark is gone: a
// silently dropped measurement is itself a regression. ns/op is not
// gated; absolute times do not carry between hosts, and timing claims
// go through bench/'s -compare, which pairs parent and change on one
// host.
func TestMicroAllocs(t *testing.T) {
	ceilings := map[string]float64{
		"LayerCrossing/depth=0":          0,
		"LayerCrossing/depth=1":          0,
		"LayerCrossing/depth=2":          0,
		"LayerCrossing/depth=4":          0,
		"LayerCrossing/depth=8":          0,
		"LayerCrossing/depth=16":         0,
		"LayerCrossing/depth=32":         0,
		"Cast":                           2,
		"FragOverhead/size=64/nofrag":    2,
		"FragOverhead/size=64/frag":      3,
		"FragOverhead/size=1024/nofrag":  2,
		"FragOverhead/size=1024/frag":    3,
		"FragOverhead/size=8192/nofrag":  2,
		"FragOverhead/size=8192/frag":    21,
		"FragOverhead/size=65536/nofrag": 2,
		"FragOverhead/size=65536/frag":   144,
		"FragRoundTrip/size=1024":        4,
		"FragRoundTrip/size=8192":        33,
		"FragRoundTrip/size=65536":       204,
		"SwitchQuiesce/members=3":        292,
		"StackBuild":                     51,
	}
	const runs = 100
	pin := func(name string, m micro) {
		ceiling, ok := ceilings[name]
		if !ok {
			t.Errorf("%s: no ceiling", name)
			return
		}
		delete(ceilings, name)
		var got float64
		m.each(func() { got = testing.AllocsPerRun(runs, m.op) })
		m.check(t, runs+1) // AllocsPerRun warms up with one run more
		if got > ceiling {
			t.Errorf("%s: %v allocs/op, ceiling %v", name, got, ceiling)
		}
	}
	for _, depth := range layerCrossingDepths {
		pin(fmt.Sprintf("LayerCrossing/depth=%d", depth), layerCrossing(t, depth))
	}
	pin("Cast", cast(t))
	for _, size := range fragOverheadSizes {
		for _, withFrag := range []bool{false, true} {
			pin(fmt.Sprintf("FragOverhead/size=%d/%s", size, fragLabel(withFrag)), fragOverhead(t, size, withFrag))
		}
	}
	for _, size := range fragRoundTripSizes {
		pin(fmt.Sprintf("FragRoundTrip/size=%d", size), fragRoundTrip(t, size))
	}
	quiesce, _ := switchQuiesce(t, 3)
	pin("SwitchQuiesce/members=3", quiesce)
	pin("StackBuild", stackBuild(t))
	for name := range ceilings {
		t.Errorf("%s: has a ceiling, but no sub-benchmark", name)
	}
}

// Sweep parameters, shared with TestMicroAllocs so that every
// sub-benchmark has an allocation ceiling and every ceiling a
// sub-benchmark.
var (
	layerCrossingDepths = []int{0, 1, 2, 4, 8, 16, 32}
	fragOverheadSizes   = []int{64, 1024, 8192, 65536}
	fragRoundTripSizes  = []int{1024, 8192, 65536}
)

// BenchmarkLayerCrossing measures the cost of pushing a cast through k
// no-op layers — the paper's claim that "the cost of a layer can be as
// low as just a few instructions at runtime". Every event reaches every
// layer, so each no-op layer costs one indirect call to its Down and
// one call back into its Context: the time grows linearly with depth.
func BenchmarkLayerCrossing(b *testing.B) {
	for _, depth := range layerCrossingDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) { layerCrossing(b, depth).bench(b) })
	}
}

func layerCrossing(tb testing.TB, depth int) micro {
	ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("a")
	spec := make(core.StackSpec, 0, depth+1)
	for i := 0; i < depth; i++ {
		spec = append(spec, func() core.Layer { return &nopLayer{} })
	}
	sink := &layertest.Sink{}
	spec = append(spec, func() core.Layer { return sink })
	g, err := ep.Join("bench", spec, nil)
	if err != nil {
		tb.Fatal(err)
	}
	ev := core.NewCast(message.New(make([]byte, 64)))
	return micro{on: ep, op: func() { g.Stack().Down(ev) }, done: func() int { return sink.Count }}
}

// BenchmarkCast measures an application's cast from Group.Cast to the
// transport through HBEAT:CHKSUM:COM, three layers that each push a
// header, over a null transport. The application's Message and the
// downcall record are its two allocations: the record holds the
// headers, and CHKSUM checksums the message where it lies.
func BenchmarkCast(b *testing.B) { cast(b).bench(b) }

func cast(tb testing.TB) micro {
	ep := core.NewEndpoint(core.EndpointID{Site: "bench", Birth: 1}, nullTransport{})
	g, err := ep.Join("bench", core.StackSpec{hbeat.New, chksum.New, com.New}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	c := g.Focus("COM").(*com.Com)
	body := make([]byte, 64)
	return micro{
		op:   func() { g.Cast(message.New(body)) },
		done: func() int { return c.Stats().Sent },
	}
}

// BenchmarkFragOverhead reproduces the paper's §10 measurement: "the
// overhead of the fragmentation/reassembly layer FRAG (which only
// needs one bit of header space) adds about 50 µsecs to the one-way
// latency" on a 1994 Sparc 10. The cost is the marshal/unmarshal round
// trip every message pays; modern hardware shrinks the constant, the
// shape (a per-message copy proportional to size) remains. nofrag is
// the baseline of the bare stack.
func BenchmarkFragOverhead(b *testing.B) {
	for _, size := range fragOverheadSizes {
		for _, withFrag := range []bool{false, true} {
			b.Run(fmt.Sprintf("size=%d/%s", size, fragLabel(withFrag)), func(b *testing.B) {
				b.SetBytes(int64(size))
				fragOverhead(b, size, withFrag).bench(b)
			})
		}
	}
}

func fragLabel(withFrag bool) string {
	if withFrag {
		return "frag"
	}
	return "nofrag"
}

func fragOverhead(tb testing.TB, size int, withFrag bool) micro {
	ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("a")
	spec := core.StackSpec{}
	if withFrag {
		spec = append(spec, frag.NewWithSize(1400))
	}
	spec = append(spec, func() core.Layer { return &layertest.Sink{} })
	g, err := ep.Join("bench", spec, nil)
	if err != nil {
		tb.Fatal(err)
	}
	body := make([]byte, size)
	return micro{on: ep, op: func() { g.Stack().Down(core.NewCast(message.New(body))) }}
}

// BenchmarkFragRoundTrip measures the full split+reassemble path, the
// closest analogue of the paper's one-way latency number.
func BenchmarkFragRoundTrip(b *testing.B) {
	for _, size := range fragRoundTripSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			fragRoundTrip(b, size).bench(b)
		})
	}
}

func fragRoundTrip(tb testing.TB, size int) micro {
	ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("a")
	// Loopback: what FRAG sends down is fed back up.
	delivered := 0
	spec := core.StackSpec{
		func() core.Layer { return &countLayer{count: &delivered} },
		frag.NewWithSize(1400),
		func() core.Layer { return &loopLayer{} },
	}
	g, err := ep.Join("bench", spec, nil)
	if err != nil {
		tb.Fatal(err)
	}
	body := make([]byte, size)
	return micro{
		on:   ep,
		op:   func() { g.Stack().Down(core.NewCast(message.New(body))) },
		done: func() int { return delivered },
	}
}

// BenchmarkSwitchQuiesce measures the delivery pause a run-time stack
// reconfiguration imposes: under a continuous cast workload on a
// 3-member group each iteration flips the SWITCH-managed segment
// (FIFO→TOTAL, then back) and records the gap in member 0's delivery
// stream that straddles the commit — from the last cast delivered
// before the quiesce drained the old segment to the first cast the
// reopened gate delivers after RESUME. The gap is virtual time,
// reported as "vpause-ns/op" (deterministic across runs); the
// wall-clock ns/op is just the cost of simulating the cycle.
func BenchmarkSwitchQuiesce(b *testing.B) {
	b.Run("members=3", func(b *testing.B) {
		m, pause := switchQuiesce(b, 3)
		m.bench(b)
		b.ReportMetric(float64(pause().Nanoseconds())/float64(b.N), "vpause-ns/op")
	})
}

// switchQuiesce returns the switch cycle as a micro and the sum of the
// pauses its operations have measured.
func switchQuiesce(tb testing.TB, members int) (micro, func() time.Duration) {
	net := netsim.New(netsim.Config{Seed: 7, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	resolver := func(name string) (core.Factory, bool) {
		if name == "TOTAL" {
			return total.NewWith(total.WithRequestRetry(60 * time.Millisecond)), true
		}
		return nil, false
	}
	mk := func() core.StackSpec {
		return core.StackSpec{
			switchp.NewWith(
				switchp.WithResolver(resolver),
				switchp.WithOpaqueBase(property.SegmentBase),
			),
			mbrship.NewWith(
				mbrship.WithGossipPeriod(40*time.Millisecond),
				mbrship.WithFlushTimeout(400*time.Millisecond),
			),
			nak.NewWith(
				nak.WithStatusPeriod(20*time.Millisecond),
				nak.WithNakResend(15*time.Millisecond),
				nak.WithSuspectAfter(0),
			),
			com.New,
		}
	}

	eps := make([]*core.Endpoint, members)
	groups := make([]*core.Group, members)
	views := make([]*core.View, members)
	var deliveries []time.Duration // member 0's delivery instants
	var commits []time.Duration    // member 0's committed-switch instants
	for i := 0; i < members; i++ {
		i := i
		eps[i] = net.NewEndpoint(fmt.Sprintf("n%02d", i))
		g, err := eps[i].Join("bench", mk(), func(ev *core.Event) {
			switch ev.Type {
			case core.UView:
				views[i] = ev.View
			case core.UCast:
				if i == 0 {
					deliveries = append(deliveries, net.Now())
				}
			case core.USwitch:
				if i == 0 && strings.HasPrefix(ev.Reason, "committed") {
					commits = append(commits, net.Now())
				}
			}
		})
		if err != nil {
			tb.Fatal(err)
		}
		groups[i] = g
	}
	for i := 1; i < members; i++ {
		i := i
		var tryMerge func()
		tryMerge = func() {
			if views[i] != nil && views[i].Size() >= members {
				return
			}
			groups[i].Merge(eps[0].ID())
			net.At(net.Now()+150*time.Millisecond, tryMerge)
		}
		net.At(net.Now()+time.Duration(i)*50*time.Millisecond, tryMerge)
	}
	net.RunFor(time.Duration(members)*250*time.Millisecond + 2*time.Second)
	for i := 0; i < members; i++ {
		if views[i] == nil || views[i].Size() != members {
			tb.Fatalf("group formation failed at member %d", i)
		}
	}

	// Continuous workload: every member casts every 2ms, forever.
	seq := 0
	var tick func()
	tick = func() {
		seq++
		body := []byte(fmt.Sprintf("m%06d", seq))
		for _, g := range groups {
			g.Cast(message.New(body))
		}
		net.At(net.Now()+2*time.Millisecond, tick)
	}
	net.At(net.Now()+2*time.Millisecond, tick)
	net.RunFor(100 * time.Millisecond)

	sw := groups[0].Focus("SWITCH").(*switchp.Switch)
	target := "TOTAL"
	var totalPause time.Duration
	cycles := 0
	op := func() {
		before := len(commits)
		eps[0].Do(func() {
			if err := sw.RequestSwitch(target); err != nil {
				tb.Fatalf("request %q: %v", target, err)
			}
		})
		deadline := net.Now() + 5*time.Second
		for len(commits) == before && net.Now() < deadline {
			net.RunFor(5 * time.Millisecond)
		}
		if len(commits) == before {
			tb.Fatalf("switch to %q never committed", target)
		}
		ct := commits[len(commits)-1]
		// Run until a delivery lands after the commit, then find the
		// gap straddling it.
		for len(deliveries) == 0 || deliveries[len(deliveries)-1] < ct {
			net.RunFor(5 * time.Millisecond)
		}
		// The commit is near the end of the stream: walk backward to
		// the boundary instead of rescanning the whole history.
		j := len(deliveries) - 1
		for j > 0 && deliveries[j-1] >= ct {
			j--
		}
		if j == 0 {
			tb.Fatal("no delivery recorded before the commit")
		}
		lastBefore, firstAfter := deliveries[j-1], deliveries[j]
		totalPause += firstAfter - lastBefore
		cycles++
		if target == "TOTAL" {
			target = ""
		} else {
			target = "TOTAL"
		}
	}
	return micro{op: op, done: func() int { return cycles }}, func() time.Duration { return totalPause }
}

// BenchmarkHeaderPushPop measures the §10 item 3 costs: six layers
// pushing word-aligned headers and popping them on delivery, versus
// the proposed precomputed compact header (BenchmarkCompactHeader).
func BenchmarkHeaderPushPop(b *testing.B) {
	sizes := []int{1, 4, 8, 2, 4, 1} // header bytes of six hypothetical layers
	b.Run("aligned", func(b *testing.B) {
		hdr := make([]byte, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := message.New(nil)
			for _, s := range sizes {
				m.PushAligned(hdr[:s])
			}
			for j := len(sizes) - 1; j >= 0; j-- {
				m.PopAligned(sizes[j])
			}
		}
	})
	b.Run("unaligned", func(b *testing.B) {
		hdr := make([]byte, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := message.New(nil)
			for _, s := range sizes {
				m.Push(hdr[:s])
			}
			for j := len(sizes) - 1; j >= 0; j-- {
				m.Pop(sizes[j])
			}
		}
	})
}

// BenchmarkCompactHeader measures the paper's proposed fix: a single
// precomputed bit-packed header written and read once per message.
func BenchmarkCompactHeader(b *testing.B) {
	layout, err := message.NewLayout([]message.Field{
		{Layer: "FRAG", Name: "more", Bits: 1},
		{Layer: "NAK", Name: "seq", Bits: 32},
		{Layer: "NAK", Name: "kind", Bits: 3},
		{Layer: "MBRSHIP", Name: "epoch", Bits: 16},
		{Layer: "MBRSHIP", Name: "seq", Bits: 32},
		{Layer: "TOTAL", Name: "ord", Bits: 32},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := message.New(nil)
		h := message.NewCompactHeader(layout)
		h.Set(0, 1)
		h.Set(1, uint64(i))
		h.Set(3, 7)
		h.Set(5, uint64(i))
		h.AttachTo(m)
		g := message.DetachFrom(m, layout)
		if g.Get(0) != 1 {
			b.Fatal("corrupt")
		}
	}
}

// BenchmarkWireBytesAlignedVsCompact reports the space side of §10
// item 3 as custom metrics.
func BenchmarkWireBytesAlignedVsCompact(b *testing.B) {
	sizes := []int{1, 4, 8, 2, 4, 1}
	aligned := 0
	for _, s := range sizes {
		aligned += (s + 3) / 4 * 4
	}
	layout, err := message.NewLayout([]message.Field{
		{Layer: "A", Name: "f", Bits: 1},
		{Layer: "B", Name: "f", Bits: 32},
		{Layer: "C", Name: "f", Bits: 3},
		{Layer: "D", Name: "f", Bits: 16},
		{Layer: "E", Name: "f", Bits: 32},
		{Layer: "F", Name: "f", Bits: 32},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(aligned), "aligned-bytes")
	b.ReportMetric(float64(layout.Size()), "compact-bytes")
	for i := 0; i < b.N; i++ {
		_ = layout.Size()
	}
}

// BenchmarkThreadedVsEventQueue is §10 item 2: locking a shared layer
// from concurrent threads versus posting to a single-threaded event
// queue ("concurrency within a stack does not lead to significant
// gains").
func BenchmarkThreadedVsEventQueue(b *testing.B) {
	work := func(state *int) { *state++ }
	b.Run("monitor-4goroutines", func(b *testing.B) {
		var m sched.Monitor
		state := 0
		var wg sync.WaitGroup
		b.ResetTimer()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					m.Do(func() { work(&state) })
				}
			}(b.N / 4)
		}
		wg.Wait()
	})
	b.Run("eventqueue-4goroutines", func(b *testing.B) {
		var q sched.Queue
		state := 0
		var wg sync.WaitGroup
		b.ResetTimer()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					q.Post(func() { work(&state) })
				}
			}(b.N / 4)
		}
		wg.Wait()
	})
	b.Run("eventqueue-single", func(b *testing.B) {
		var q sched.Queue
		state := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Post(func() { work(&state) })
		}
	})
}

// BenchmarkMinimalVsFullStack is the "an application pays only for
// properties it uses" claim: the cost of a cast through COM alone
// versus the full §7 stack plus security layers, on quiet simulated
// networks.
func BenchmarkMinimalVsFullStack(b *testing.B) {
	stacks := []string{
		"COM",
		"NAK:COM",
		"FRAG:NAK:COM",
		"MBRSHIP:FRAG:NAK:COM",
		"GKEY:MBRSHIP:FRAG:NAK:COM",
		"TOTAL:MBRSHIP:FRAG:NAK:COM",
		"TOTAL:MBRSHIP:FRAG:NAK:SIGN:CHKSUM:COM",
	}
	for _, desc := range stacks {
		b.Run(desc, func(b *testing.B) {
			net := netsim.New(netsim.Config{Seed: 1})
			spec, err := stackreg.Build(desc, property.P1)
			if err != nil {
				b.Fatal(err)
			}
			ep := net.NewEndpoint("a")
			g, err := ep.Join("bench", spec, nil)
			if err != nil {
				b.Fatal(err)
			}
			needsView := true
			for _, name := range property.ParseStack(desc) {
				if name == "MBRSHIP" {
					needsView = false
				}
			}
			if needsView {
				g.InstallView(core.NewView(core.ViewID{Seq: 1, Coord: ep.ID()}, "bench",
					[]core.EndpointID{ep.ID()}))
			}
			net.RunFor(10 * time.Millisecond)
			body := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Cast(message.New(body))
				if i%64 == 0 {
					// Drain deliveries and timers so buffers stay flat.
					net.RunFor(time.Millisecond)
				}
			}
		})
	}
}

// BenchmarkNakThroughput drives the reliable FIFO path end to end
// between two simulated endpoints.
func BenchmarkNakThroughput(b *testing.B) {
	net := netsim.New(netsim.Config{Seed: 1})
	mk := func() core.StackSpec {
		return core.StackSpec{nak.NewWith(nak.WithSuspectAfter(0)), com.New}
	}
	epA := net.NewEndpoint("a")
	epB := net.NewEndpoint("b")
	delivered := 0
	ga, err := epA.Join("bench", mk(), nil)
	if err != nil {
		b.Fatal(err)
	}
	gb, err := epB.Join("bench", mk(), func(ev *core.Event) {
		if ev.Type == core.UCast {
			delivered++
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	view := core.NewView(core.ViewID{Seq: 1, Coord: epA.ID()}, "bench",
		[]core.EndpointID{epA.ID(), epB.ID()})
	ga.InstallView(view)
	gb.InstallView(view)
	body := make([]byte, 256)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ga.Cast(message.New(body))
		if i%128 == 0 {
			net.RunFor(time.Millisecond)
		}
	}
	net.RunFor(time.Second)
	if delivered < b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkStabilityMatrix measures the bookkeeping behind STABLE
// upcalls.
func BenchmarkStabilityMatrix(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			members := make([]core.EndpointID, n)
			for i := range members {
				members[i] = core.EndpointID{Site: fmt.Sprintf("m%d", i), Birth: uint64(i + 1)}
			}
			m := core.NewStabilityMatrix(members)
			o := core.NewStabilityMatrix(members)
			for i, a := range members {
				for j, bb := range members {
					o.Set(a, bb, uint64(i*j))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MergeFrom(o)
				_ = m.MinStable(members[0])
			}
		})
	}
}

// BenchmarkStackBuild measures run-time composition: instantiating and
// wiring the full §7 stack. The x-kernel configured protocol graphs at
// compile time; Horus's claim is that run-time composition is cheap
// enough to do per join (§12). One operation is an endpoint, its join
// and its destruction.
func BenchmarkStackBuild(b *testing.B) { stackBuild(b).bench(b) }

func stackBuild(tb testing.TB) micro {
	net := netsim.New(netsim.Config{Seed: 1})
	spec, err := stackreg.Build("TOTAL:MBRSHIP:FRAG:NAK:COM", property.P1)
	if err != nil {
		tb.Fatal(err)
	}
	joins := 0
	return micro{
		op: func() {
			ep := net.NewEndpoint("x")
			if _, err := ep.Join("bench", spec, nil); err != nil {
				tb.Fatal(err)
			}
			joins++
			ep.Destroy()
		},
		done: func() int { return joins },
	}
}

// BenchmarkSynthesize measures the §6 minimal-stack search: Dijkstra
// over property sets, the cost of "building a single protocol for the
// particular application on the fly".
func BenchmarkSynthesize(b *testing.B) {
	goals := []property.Set{
		property.P6,
		property.P7,
		property.P5 | property.P14,
		property.P6 | property.P7 | property.P16,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := property.Synthesize(property.P1, goals[i%len(goals)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerive measures well-formedness checking of a named stack.
func BenchmarkDerive(b *testing.B) {
	stack := property.ParseStack("TOTAL:MBRSHIP:FRAG:NAK:SIGN:CHKSUM:COM")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := property.Derive(property.P1, stack); err != nil {
			b.Fatal(err)
		}
	}
}
