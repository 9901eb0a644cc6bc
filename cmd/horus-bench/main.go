// Command horus-bench runs the protocol-level experiments of
// EXPERIMENTS.md on the deterministic network simulator and prints the
// result tables. CPU-level costs (layer crossings, header push/pop,
// FRAG marshal overhead) are measured separately by `go test -bench`;
// this binary measures protocol behaviour in virtual time, where
// results are exactly reproducible.
//
// Usage:
//
//	horus-bench [experiment...]
//
// with experiments: headers, stability, viewchange, loss, token, heal,
// compress.
// No arguments runs everything.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/compress"
	"horus/internal/layers/frag"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/merge"
	"horus/internal/layers/nak"
	"horus/internal/layers/pinwheel"
	"horus/internal/layers/stable"
	"horus/internal/layers/total"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/property"
	"horus/internal/stackreg"
)

func main() {
	flag.Parse()
	all := map[string]func(){
		"headers":    benchHeaders,
		"stability":  benchStability,
		"viewchange": benchViewChange,
		"loss":       benchLoss,
		"token":      benchToken,
		"heal":       benchHeal,
		"compress":   benchCompress,
	}
	order := []string{"headers", "stability", "viewchange", "loss", "token", "heal", "compress"}
	args := flag.Args()
	if len(args) == 0 {
		args = order
	}
	for _, name := range args {
		fn, ok := all[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "horus-bench: unknown experiment %q\n", name)
			os.Exit(1)
		}
		fn()
		fmt.Println()
	}
}

// membershipLayers builds the simulation-friendly membership stack
// fragments.
func membershipLayers() []core.Factory {
	return []core.Factory{
		mbrship.NewWith(
			mbrship.WithGossipPeriod(40*time.Millisecond),
			mbrship.WithFlushTimeout(500*time.Millisecond),
		),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithNakResend(15*time.Millisecond),
			nak.WithSuspectAfter(6),
		),
		com.New,
	}
}

// group builds an n-member group over spec-producing factory.
func group(net *netsim.Network, n int, mk func() core.StackSpec, handler func(i int) core.Handler) ([]*core.Endpoint, []*core.Group) {
	eps := make([]*core.Endpoint, n)
	groups := make([]*core.Group, n)
	for i := 0; i < n; i++ {
		eps[i] = net.NewEndpoint(fmt.Sprintf("n%02d", i))
		g, err := eps[i].Join("bench", mk(), handler(i))
		if err != nil {
			panic(err)
		}
		groups[i] = g
	}
	if err := net.Form(groups, time.Duration(n)*250*time.Millisecond+2*time.Second); err != nil {
		panic(fmt.Sprintf("bench group formation failed: %v", err))
	}
	return eps, groups
}

// benchHeaders measures per-stack wire overhead: bytes on the wire per
// 64-byte application cast (§10 item 3 motivates compact headers by
// the cost of stacked, padded headers).
func benchHeaders() {
	fmt.Println("== header overhead: wire bytes per 64-byte cast, per stack ==")
	fmt.Printf("%-52s %14s %14s\n", "stack (top:...:bottom)", "wire bytes", "overhead")
	stacks := []string{
		"COM",
		"NAK:COM",
		"NAK:CHKSUM:COM",
		"FRAG:NAK:COM",
		"MBRSHIP:FRAG:NAK:COM",
		"TOTAL:MBRSHIP:FRAG:NAK:COM",
		"STABLE:MBRSHIP:FRAG:NAK:COM",
		"TOTAL:MBRSHIP:FRAG:NAK:SIGN:CHKSUM:COM",
	}
	for _, desc := range stacks {
		// Two members: under MBRSHIP a cast goes to the members other
		// than its sender, so a singleton's would reach no wire at all.
		net := netsim.New(netsim.Config{Seed: 1})
		groups := make([]*core.Group, 2)
		for i := range groups {
			spec, err := stackreg.Build(desc, property.P1)
			if err != nil {
				panic(err)
			}
			g, err := net.NewEndpoint(string(rune('a'+i))).Join("bench", spec, nil)
			if err != nil {
				panic(err)
			}
			groups[i] = g
		}
		if err := net.Form(groups, 2*time.Second); err != nil {
			panic(err)
		}
		// The wire image that carries the body; control traffic
		// (status, gossip, token) is smaller than the body alone.
		size := 0
		groups[0].Endpoint().SetWireTap(func(_ []core.EndpointID, w []byte) {
			if size == 0 && len(w) > 64 {
				size = len(w)
			}
		})
		net.At(net.Now(), func() { groups[0].Cast(message.New(make([]byte, 64))) })
		net.RunFor(100 * time.Millisecond)
		fmt.Printf("%-52s %14d %14d\n", desc, size, size-64)
	}
	fmt.Println("(one copy of one cast; overhead = headers + framing beyond the 64-byte body)")
}

// benchStability compares STABLE and PINWHEEL: virtual time and
// messages until a cast is known stable at every member, over group
// size (the paper: applications choose "whether STABLE or PINWHEEL
// will be optimal").
func benchStability() {
	fmt.Println("== stability: STABLE (gossip) vs PINWHEEL (rotating token) ==")
	fmt.Printf("%4s %18s %18s %16s %16s\n", "n", "STABLE latency", "PINWHEEL latency", "STABLE msgs", "PINWHEEL msgs")
	for _, n := range []int{2, 4, 8, 16} {
		sLat, sMsg := stabilityRun(n, false)
		pLat, pMsg := stabilityRun(n, true)
		fmt.Printf("%4d %18v %18v %16d %16d\n", n, sLat, pLat, sMsg, pMsg)
	}
	fmt.Println("(latency: cast until MinStable reaches it at every member;")
	fmt.Println(" msgs: stability-protocol messages — ack gossips or token passes — in that window)")

	fmt.Println()
	fmt.Println("-- steady state: stability messages/second under continuous traffic --")
	fmt.Printf("%4s %16s %16s\n", "n", "STABLE msg/s", "PINWHEEL msg/s")
	for _, n := range []int{2, 4, 8, 16} {
		s := steadyStateRun(n, false)
		p := steadyStateRun(n, true)
		fmt.Printf("%4d %16.0f %16.0f\n", n, s, p)
	}
	fmt.Println("(the pinwheel trades latency for a constant message load: one token pass per")
	fmt.Println(" hold period regardless of group size, versus one gossip per member per period)")
}

func stabilityRun(n int, usePinwheel bool) (time.Duration, int) {
	net := netsim.New(netsim.Config{Seed: 33, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	var stableAt []time.Duration
	mk := func() core.StackSpec { return stabilityStack(usePinwheel) }
	var groups []*core.Group
	var origin core.EndpointID
	handler := func(i int) core.Handler {
		return func(ev *core.Event) {
			switch ev.Type {
			case core.UCast:
				if !ev.ID.Origin.IsZero() {
					groups[i].Ack(ev.ID)
				}
			case core.UStable:
				r := slices.Index(ev.Stability.Members, origin)
				if len(stableAt) > i && stableAt[i] == 0 && r >= 0 && ev.Stability.MinStable(r) >= 1 {
					stableAt[i] = net.Now()
				}
			}
		}
	}
	eps, gs := group(net, n, mk, handler)
	groups = gs
	origin = eps[0].ID()
	stableAt = make([]time.Duration, n)

	start := net.Now()
	msgsBefore := stabilityMsgs(gs, usePinwheel)
	net.At(start, func() { gs[0].Cast(message.New([]byte("probe"))) })
	// Advance in small steps and stop at convergence, so the message
	// count covers exactly the stabilization window.
	deadline := start + 5*time.Second
	converged := func() bool {
		for _, at := range stableAt {
			if at == 0 {
				return false
			}
		}
		return true
	}
	for !converged() && net.Now() < deadline {
		net.RunFor(5 * time.Millisecond)
	}
	if !converged() {
		panic(fmt.Sprintf("stability never converged (n=%d pinwheel=%v)", n, usePinwheel))
	}
	worst := time.Duration(0)
	for _, at := range stableAt {
		if at-start > worst {
			worst = at - start
		}
	}
	return worst.Round(time.Millisecond), stabilityMsgs(gs, usePinwheel) - msgsBefore
}

// steadyStateRun measures stability-protocol messages per second of
// virtual time while every member casts and acks continuously.
func steadyStateRun(n int, usePinwheel bool) float64 {
	net := netsim.New(netsim.Config{Seed: 35, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	mk := func() core.StackSpec { return stabilityStack(usePinwheel) }
	var groups []*core.Group
	handler := func(i int) core.Handler {
		return func(ev *core.Event) {
			if ev.Type == core.UCast && !ev.ID.Origin.IsZero() && groups != nil {
				groups[i].Ack(ev.ID)
			}
		}
	}
	_, gs := group(net, n, mk, handler)
	groups = gs
	// Warm up, then measure 2 seconds of continuous casting.
	const window = 2 * time.Second
	base := net.Now()
	for i := 0; ; i++ {
		at := base + time.Duration(i)*10*time.Millisecond
		if at > base+window+200*time.Millisecond {
			break
		}
		i := i
		net.At(at, func() { gs[i%n].Cast(message.New([]byte("tick"))) })
	}
	net.RunFor(100 * time.Millisecond)
	before := stabilityMsgs(gs, usePinwheel)
	start := net.Now()
	net.RunFor(window)
	return float64(stabilityMsgs(gs, usePinwheel)-before) / (float64(net.Now()-start) / float64(time.Second))
}

// stabilityStack is the stack both stability experiments run: STABLE
// or PINWHEEL over the membership layers.
func stabilityStack(usePinwheel bool) core.StackSpec {
	top := core.Factory(stable.New)
	if usePinwheel {
		top = pinwheel.New
	}
	return append(core.StackSpec{top}, membershipLayers()...)
}

// stabilityMsgs counts the stability-protocol messages the members
// have sent so far: ack gossips or token passes.
func stabilityMsgs(gs []*core.Group, usePinwheel bool) int {
	total := 0
	for _, g := range gs {
		if usePinwheel {
			total += g.Focus("PINWHEEL").(*pinwheel.Pinwheel).Stats().TokenSent
		} else {
			total += g.Focus("STABLE").(*stable.Stable).Stats().GossipsSent
		}
	}
	return total
}

// benchViewChange measures crash-to-new-view latency against group
// size: the cost of the §5 flush protocol (plus the failure-detection
// window).
func benchViewChange() {
	fmt.Println("== view change: crash detection + flush latency vs group size ==")
	fmt.Printf("%4s %16s %12s\n", "n", "crash->view", "msgs")
	for _, n := range []int{2, 4, 8, 16, 24} {
		net := netsim.New(netsim.Config{Seed: 57, DefaultLink: netsim.Link{Delay: time.Millisecond}})
		installed := make([]time.Duration, n)
		var crashAt time.Duration
		mk := func() core.StackSpec { return core.StackSpec(membershipLayers()) }
		handler := func(i int) core.Handler {
			return func(ev *core.Event) {
				if ev.Type == core.UView && ev.View.Size() == n-1 && crashAt > 0 {
					installed[i] = net.Now()
				}
			}
		}
		eps, _ := group(net, n, mk, handler)
		crashAt = net.Now()
		msgsBefore := net.Stats().Delivered
		net.Crash(eps[n-1].ID())
		net.RunFor(5 * time.Second)
		worst := time.Duration(0)
		for i := 0; i < n-1; i++ {
			if installed[i] == 0 {
				panic("view change incomplete")
			}
			if installed[i]-crashAt > worst {
				worst = installed[i] - crashAt
			}
		}
		fmt.Printf("%4d %16v %12d\n", n, worst.Round(time.Millisecond), net.Stats().Delivered-msgsBefore)
	}
	fmt.Println("(includes the NAK silence window of 6 x 20ms before suspicion)")
}

// benchLoss sweeps network loss and reports NAK's delivered latency
// percentiles for FIFO multicast.
func benchLoss() {
	fmt.Println("== NAK recovery: delivery latency vs loss rate (200 casts, 2 members) ==")
	fmt.Printf("%8s %12s %12s %12s %14s\n", "loss", "p50", "p99", "max", "retransmits")
	for _, loss := range []float64{0, 0.05, 0.1, 0.2, 0.4} {
		net := netsim.New(netsim.Config{Seed: 91, DefaultLink: netsim.Link{
			Delay: time.Millisecond, LossRate: loss,
		}})
		var lat []time.Duration
		sentAt := map[string]time.Duration{}
		epA := net.NewEndpoint("a")
		epB := net.NewEndpoint("b")
		mk := func() core.StackSpec {
			return core.StackSpec{nak.NewWith(
				nak.WithStatusPeriod(20*time.Millisecond),
				nak.WithNakResend(15*time.Millisecond),
				nak.WithSuspectAfter(0),
			), com.New}
		}
		ga, err := epA.Join("bench", mk(), nil)
		if err != nil {
			panic(err)
		}
		gb, err := epB.Join("bench", mk(), func(ev *core.Event) {
			if ev.Type == core.UCast {
				lat = append(lat, net.Now()-sentAt[string(ev.Msg.Body())])
			}
		})
		if err != nil {
			panic(err)
		}
		core.InstallView(ga, gb)
		for i := 0; i < 200; i++ {
			i := i
			net.At(time.Duration(i)*2*time.Millisecond, func() {
				body := fmt.Sprintf("m%04d", i)
				sentAt[body] = net.Now()
				ga.Cast(message.New([]byte(body)))
			})
		}
		net.RunFor(10 * time.Second)
		if len(lat) != 200 {
			panic(fmt.Sprintf("loss sweep: delivered %d of 200 at loss %.2f", len(lat), loss))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		st := ga.Focus("NAK").(*nak.Nak).Stats()
		fmt.Printf("%7.0f%% %12v %12v %12v %14d\n", loss*100,
			lat[100].Round(time.Microsecond), lat[198].Round(time.Microsecond),
			lat[199].Round(time.Microsecond), st.Retransmits)
	}
}

// benchToken measures the TOTAL oracle: token operations per ordered
// message as the number of concurrent senders grows.
func benchToken() {
	fmt.Println("== TOTAL token oracle: token passes per message vs concurrent senders ==")
	fmt.Printf("%8s %10s %12s %16s\n", "senders", "msgs", "token ops", "ops per msg")
	for _, senders := range []int{1, 2, 4, 8} {
		net := netsim.New(netsim.Config{Seed: 77, DefaultLink: netsim.Link{Delay: time.Millisecond}})
		n := 8
		mk := func() core.StackSpec {
			spec := core.StackSpec{total.NewWith(total.WithRequestRetry(50 * time.Millisecond))}
			return append(spec, membershipLayers()...)
		}
		_, groups := group(net, n, mk, func(int) core.Handler { return nil })
		const msgs = 64
		base := net.Now()
		for i := 0; i < msgs; i++ {
			i := i
			net.At(base+time.Duration(i)*3*time.Millisecond, func() {
				groups[i%senders].Cast(message.New([]byte(fmt.Sprintf("m%d", i))))
			})
		}
		net.RunFor(5 * time.Second)
		ops := 0
		for _, g := range groups {
			ops += g.Focus("TOTAL").(*total.Total).Stats().TokenOps
		}
		fmt.Printf("%8d %10d %12d %16.3f\n", senders, msgs, ops, float64(ops)/float64(msgs))
	}
	fmt.Println("(a parked token orders a sole sender's messages for free; contention costs ~1 pass per batch)")
}

// benchCompress measures the COMPRESS layer's Figure 1 purpose — "to
// improve bandwidth use" — on a bandwidth-limited simulated link:
// one-way delivery time of a compressible payload with and without the
// layer.
func benchCompress() {
	fmt.Println("== COMPRESS over a 1 MB/s link: delivery time of a 32 KiB text payload ==")
	fmt.Printf("%-28s %14s %14s\n", "stack", "delivery", "wire bytes")
	for _, withCompress := range []bool{false, true} {
		net := netsim.New(netsim.Config{Seed: 17, DefaultLink: netsim.Link{
			Delay:     time.Millisecond,
			Bandwidth: 1 << 20, // 1 MiB/s
		}})
		var deliveredAt time.Duration
		var bytesAtDelivery int
		mkSpec := func() core.StackSpec {
			spec := core.StackSpec{}
			if withCompress {
				spec = append(spec, compress.New)
			}
			spec = append(spec, frag.NewWithSize(1400),
				nak.NewWith(nak.WithSuspectAfter(0), nak.WithStatusPeriod(20*time.Millisecond), nak.WithNakResend(15*time.Millisecond)),
				com.New)
			return spec
		}
		epA := net.NewEndpoint("a")
		epB := net.NewEndpoint("b")
		ga, err := epA.Join("bench", mkSpec(), nil)
		if err != nil {
			panic(err)
		}
		gb, err := epB.Join("bench", mkSpec(), func(ev *core.Event) {
			if ev.Type == core.UCast && deliveredAt == 0 {
				deliveredAt = net.Now()
				bytesAtDelivery = net.Stats().Bytes
			}
		})
		if err != nil {
			panic(err)
		}
		core.InstallView(ga, gb)

		// Highly compressible payload: repeated text.
		unit := []byte("the quick brown fox jumps over the lazy dog. ")
		payload := bytes.Repeat(unit, 32*1024/len(unit)+1)[:32*1024]
		start := net.Now()
		bytesBefore := net.Stats().Bytes
		net.At(start, func() { ga.Cast(message.New(payload)) })
		net.RunFor(10 * time.Second)
		if deliveredAt == 0 {
			panic("compress bench: payload never delivered")
		}
		name := "FRAG:NAK:COM"
		if withCompress {
			name = "COMPRESS:FRAG:NAK:COM"
		}
		fmt.Printf("%-28s %14v %14d\n", name,
			(deliveredAt - start).Round(time.Millisecond), bytesAtDelivery-bytesBefore)
	}
	fmt.Println("(compressible text; incompressible payloads ride through verbatim at +1 byte)")
}

// benchHeal measures partition healing with the MERGE layer: the time
// from Heal() until every member is back in one primary view, against
// group size (§9's extended virtual synchrony plus automatic view
// merging, P16).
func benchHeal() {
	fmt.Println("== partition healing: heal -> single view, with MERGE beacons (100ms) ==")
	fmt.Printf("%4s %18s\n", "n", "heal->one view")
	for _, n := range []int{4, 8, 12} {
		net := netsim.New(netsim.Config{Seed: 313, DefaultLink: netsim.Link{Delay: time.Millisecond}})
		healed := make([]time.Duration, n)
		var healAt time.Duration
		mk := func() core.StackSpec {
			return append(core.StackSpec{merge.New}, membershipLayers()...)
		}
		handler := func(i int) core.Handler {
			return func(ev *core.Event) {
				if ev.Type == core.UView && ev.View.Size() == n && healAt > 0 && healed[i] == 0 {
					healed[i] = net.Now()
				}
			}
		}
		eps, _ := group(net, n, mk, handler)
		// Split in half, let both sides settle, then heal.
		var left, right []core.EndpointID
		for i, ep := range eps {
			if i < n/2 {
				left = append(left, ep.ID())
			} else {
				right = append(right, ep.ID())
			}
		}
		net.Partition(left, right)
		net.RunFor(3 * time.Second)
		net.Heal()
		healAt = net.Now()
		net.RunFor(20 * time.Second)
		worst := time.Duration(0)
		for i := 0; i < n; i++ {
			if healed[i] == 0 {
				panic(fmt.Sprintf("healing incomplete at member %d (n=%d)", i, n))
			}
			if healed[i]-healAt > worst {
				worst = healed[i] - healAt
			}
		}
		fmt.Printf("%4d %18v\n", n, worst.Round(time.Millisecond))
	}
	fmt.Println("(dominated by the beacon period plus two merge flushes)")
}
