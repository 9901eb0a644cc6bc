package integration

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/property"
	"horus/internal/stackreg"
)

// sec7AllocCeiling bounds the heap allocations the §7 stack may spend
// per application delivery in steady state (measured: 5.66). The count
// repeats exactly for the seed, so the margin is not for noise: it is
// room for a change to add one allocation per delivery somewhere
// without having to argue here, and no more. The stack stood at 26.42
// on this test before retention, re-framing and transmission stopped
// copying (DESIGN.md §11, "Retention and re-framing"), and at 12.68
// before the traffic the layers originate themselves cost one record a
// message ("Layer-originated traffic"), and at 6.32 while a cast's
// header stack outgrew the default headroom and a status or gossip
// vector was copied out to be read; bench/ measures the same thing with
// a load generator around it, outside `go test ./...`.
const sec7AllocCeiling = 6.66

// sec7BytesCeiling bounds the bytes the same deliveries may allocate
// (measured: 875, exact for the seed; the 8 % is room for a change
// elsewhere). The stack stood at 1 177 here while every record that
// carries an event — packet, downcall, send, MBRSHIP's self-delivery —
// held all of Tables 1–2 (DESIGN.md §11, "A small Event").
const sec7BytesCeiling = 945

// TestSec7AllocsPerDelivery drives TOTAL:MBRSHIP:FRAG:NAK:COM at
// registry defaults on a lossless 1 ms netsim link: four members formed
// by real merges, 2000 casts of 64 bytes at one per 2 ms from members
// drawn from a fixed seed (so TOTAL's token moves for about three casts
// in four), every cast delivered at every member.
func TestSec7AllocsPerDelivery(t *testing.T) {
	net, groups, delivered := formSec7(t)
	per, bytes := allocsPerDelivery(t, net, groups, delivered, 64, 2*time.Millisecond)
	if per > sec7AllocCeiling {
		t.Errorf("%.2f allocations per delivery, ceiling %.2f", per, sec7AllocCeiling)
	}
	if bytes > sec7BytesCeiling {
		t.Errorf("%.0f bytes allocated per delivery, ceiling %d", bytes, sec7BytesCeiling)
	}
}

// sec7FragLossyBytesCeiling bounds the bytes the §7 stack may allocate
// per delivery of a 16 KiB cast over a link that loses one packet in a
// hundred (measured: 54 023; the count repeats exactly for the seed,
// the 8 % is room for a change elsewhere). A delivery is 17 fragments
// received and reassembled, its quarter of 17 sent, and its share of
// NAK's recovery, where each retransmission is a send record, a packet
// record and netsim's copy of a 1 KiB wire image. The stack stood at
// 149 734 here while FRAG grew an accumulator fragment by fragment and
// NAK copied each outgoing fragment to retain it (DESIGN.md §11, "The
// out-of-order path"), at 102 204 while every out-of-order arrival
// asked for its whole gap again (DESIGN.md §7, "A gap is asked for
// once"), and at 58 957 while every event record held all of Tables
// 1–2 (DESIGN.md §11, "A small Event").
const sec7FragLossyBytesCeiling = 58_344

// sec7FragLossyRetransmitCeiling bounds NAK's retransmissions per data
// packet in the same run (measured: 1.836, exact for the seed; 5.930
// while every out-of-order arrival asked again). Jitter reorders the
// fragments of a cast without losing them, so a rise here is NAK paying
// for reordering again.
const sec7FragLossyRetransmitCeiling = 2.2

// TestSec7FragLossyAllocBytesPerDelivery is TestSec7AllocsPerDelivery
// with the load of bench/'s sec7-frag-lossy-sim: the same four members,
// formed over the clean link, then 1 % loss and 200 µs of jitter, and
// casts of 16 KiB at one per 10 ms. It pins NAK's retransmissions per
// data packet from the formed group on as well, since that is where the
// bytes go.
func TestSec7FragLossyAllocBytesPerDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("36 MiB through four stacks: a second, fifteen under -race; CI's plain allocation-pin step runs it")
	}
	net, groups, delivered := formSec7(t)
	before := nakTotals(groups)
	net.SetDefaultLink(netsim.Link{Delay: time.Millisecond, Jitter: 200 * time.Microsecond, LossRate: 0.01})
	_, bytes := allocsPerDelivery(t, net, groups, delivered, 16<<10, 10*time.Millisecond)
	if bytes > sec7FragLossyBytesCeiling {
		t.Errorf("%.0f bytes allocated per delivery, ceiling %d", bytes, sec7FragLossyBytesCeiling)
	}
	after := nakTotals(groups)
	re := float64(after.Retransmits-before.Retransmits) / float64(after.DataSent-before.DataSent)
	t.Logf("%.3f NAK retransmissions per data packet", re)
	if re > sec7FragLossyRetransmitCeiling {
		t.Errorf("%.3f NAK retransmissions per data packet, ceiling %.2f", re, sec7FragLossyRetransmitCeiling)
	}
}

// nakTotals sums the NAK counters of the members.
func nakTotals(groups []*core.Group) nak.Stats {
	var sum nak.Stats
	for _, g := range groups {
		st := g.Focus("NAK").(*nak.Nak).Stats()
		sum.DataSent += st.DataSent
		sum.Retransmits += st.Retransmits
	}
	return sum
}

// formSec7 forms four members of TOTAL:MBRSHIP:FRAG:NAK:COM at registry
// defaults by real merges over a lossless 1 ms netsim link. The counter
// it returns is advanced by every CAST upcall at any member.
func formSec7(t *testing.T) (*netsim.Network, []*core.Group, *int) {
	t.Helper()
	const members = 4
	net := netsim.New(netsim.Config{Seed: 14, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps := make([]*core.Endpoint, members)
	groups := make([]*core.Group, members)
	sizes := make([]int, members)
	delivered := 0
	for i := range eps {
		spec, err := stackreg.Build("TOTAL:MBRSHIP:FRAG:NAK:COM", property.P1)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = net.NewEndpoint(string(rune('a' + i)))
		groups[i], err = eps[i].Join("grp", spec, func(ev *core.Event) {
			switch ev.Type {
			case core.UView:
				sizes[i] = ev.View.Size()
			case core.UCast:
				delivered++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < members; i++ {
		var tryMerge func()
		tryMerge = func() {
			if sizes[i] < members {
				groups[i].Merge(eps[0].ID())
				net.At(net.Now()+150*time.Millisecond, tryMerge)
			}
		}
		net.At(net.Now()+time.Duration(i)*50*time.Millisecond, tryMerge)
	}
	net.RunFor(5 * time.Second)
	for i, n := range sizes {
		if n != members {
			t.Fatalf("member %d: view of %d after formation, want %d", i, n, members)
		}
	}
	return net, groups, &delivered
}

// waistAllocCeiling is sec7AllocCeiling for NAK:COM alone (measured:
// 3.13), the part of the count every stack above the waist pays too,
// with half the margin. With four deliveries to a cast, a delivery
// costs its packet record, a quarter of what the cast costs — the
// application's Message, the downcall record, NAK's retained copy, this
// test's scheduling closure and what netsim spends per Send — and its
// share of NAK's status rounds (DESIGN.md §11, "The socket path").
const waistAllocCeiling = 3.63

// waistBytesCeiling bounds the bytes those allocations come to
// (measured: 467, exact for the seed, with the §7 pins' 8 %). Most of
// it is the packet and downcall records, which stood at 320 and 288
// bytes — 644 per delivery here — while the event they hold carried all
// of Tables 1–2 (DESIGN.md §11, "A small Event").
const waistBytesCeiling = 504

// TestWaistAllocsPerDelivery is TestSec7AllocsPerDelivery for the
// waist: NAK:COM with an installed four-member view, same link, same
// load.
func TestWaistAllocsPerDelivery(t *testing.T) {
	const members = 4
	net := netsim.New(netsim.Config{Seed: 14, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	ids := make([]core.EndpointID, members)
	groups := make([]*core.Group, members)
	delivered := 0
	for i := range groups {
		spec, err := stackreg.Build("NAK:COM", property.P1)
		if err != nil {
			t.Fatal(err)
		}
		ep := net.NewEndpoint(string(rune('a' + i)))
		ids[i] = ep.ID()
		groups[i], err = ep.Join("grp", spec, func(ev *core.Event) {
			if ev.Type == core.UCast {
				delivered++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	view := core.NewView(core.ViewID{Seq: 1, Coord: ids[0]}, "grp", ids)
	for _, g := range groups {
		g.InstallView(view)
	}
	per, bytes := allocsPerDelivery(t, net, groups, &delivered, 64, 2*time.Millisecond)
	if per > waistAllocCeiling {
		t.Errorf("%.2f allocations per delivery, ceiling %.2f", per, waistAllocCeiling)
	}
	if bytes > waistBytesCeiling {
		t.Errorf("%.0f bytes allocated per delivery, ceiling %d", bytes, waistBytesCeiling)
	}
}

// allocsPerDelivery drives a formed group — 200 casts to warm up, then
// 2000, of size bytes at one per every from members drawn from a fixed
// seed — demands every cast delivered at every member, and returns the
// heap allocations and the bytes allocated per delivery of the 2000.
// delivered is the counter the members' handlers advance.
func allocsPerDelivery(t *testing.T, net *netsim.Network, groups []*core.Group, delivered *int, size int, every time.Duration) (allocs, bytes float64) {
	t.Helper()
	const (
		warmup = 200
		casts  = 2000
	)
	senders := rand.New(rand.NewSource(14))
	run := func(n int) {
		body := make([]byte, size)
		for i := 0; i < n; i++ {
			g := groups[senders.Intn(len(groups))]
			net.At(net.Now()+time.Duration(i)*every, func() { g.Cast(message.New(body)) })
		}
		net.RunFor(time.Duration(n)*every + 500*time.Millisecond)
	}
	*delivered = 0
	run(warmup)
	if *delivered != warmup*len(groups) {
		t.Fatalf("warm-up delivered %d of %d", *delivered, warmup*len(groups))
	}

	*delivered = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(casts)
	runtime.ReadMemStats(&after)
	if *delivered != casts*len(groups) {
		t.Fatalf("delivered %d of %d", *delivered, casts*len(groups))
	}
	allocs = float64(after.Mallocs-before.Mallocs) / float64(*delivered)
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(*delivered)
	t.Logf("%.2f allocations and %.0f bytes per delivery over %d deliveries", allocs, bytes, *delivered)
	return allocs, bytes
}
