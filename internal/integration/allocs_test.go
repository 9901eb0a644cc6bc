package integration

import (
	"fmt"
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
// per application delivery in steady state (measured: 0.73). The count
// repeats exactly for the seed, so the 8 % margin is not for noise: it
// is room for a change elsewhere. The stack stood at 26.42
// on this test before retention, re-framing and transmission stopped
// copying (DESIGN.md §11, "Retention and re-framing"), and at 12.68
// before the traffic the layers originate themselves cost one record a
// message ("Layer-originated traffic"), and at 6.32 while a cast's
// header stack outgrew the default headroom and a status or gossip
// vector was copied out to be read, and at 5.66 while fixed-width header
// integers made a cast's headers outgrow its downcall record's room
// (DESIGN.md §11, "Headers the size of their values"), and at 5.42
// while every timer arm cost four allocations (DESIGN.md §5, "Timers"),
// and at 4.68 / 729 / 1.503 while the sender was sent its own cast
// (DESIGN.md §7, "A cast does not come back to its sender"), and at
// 4.43 / 686 while a cast's body was copied when a layer first kept it
// and netsim copied every wire image it was handed (DESIGN.md §11, "A
// cast's bytes are written once"), and at 3.35 / 651 while every
// received packet's record was left to the collector (DESIGN.md §11,
// "The receive record"), and at 2.02 / 375 while a sender's own delivery
// of its cast was a record of its own (same section, "MBRSHIP's log
// holds values"), and at 1.77 / 327 while every timer Reset and Stop
// reached the transport, so TOTAL's request retry paid an arm per
// request, and at 1.65 / 323 while a timer armed netsim through
// SetTimer, whose cancel func cost an allocation per arm (DESIGN.md §5,
// "Timers"), and at 1.56 / 320 while every record a layer built — TOTAL's
// requests and token passes, NAK's statuses and per-destination copies —
// was left to the collector (DESIGN.md §11, "A send record is lent for
// its run"), and at 0.98 / 167 while the downcall record of an
// application's cast kept the application's Message (DESIGN.md §11,
// "The downcall record is lent"); bench/ measures the same thing with
// a load generator around it, outside `go test ./...`.
const sec7AllocCeiling = 0.79

// sec7BytesCeiling bounds the bytes the same deliveries may allocate
// (measured: 159, exact for the seed; the 8 % is room for a change
// elsewhere). The stack stood at 1 177 here while every record that
// carries an event — packet, downcall, send, MBRSHIP's self-delivery —
// held all of Tables 1–2 (DESIGN.md §11, "A small Event"), at 875
// with fixed-width header integers, at 753 while every timer arm
// cost four allocations, at 729 while the sender was sent its own
// cast, at 686 while a cast's bytes were copied twice on their way to
// the wire, at 651 while every received packet cost its record, at
// 375 while the sender's own delivery did, at 327 while every timer
// Reset reached the transport, at 323 while every timer arm cost
// netsim's cancel func, at 320 while every record a layer built was
// left to the collector, and at 167 while a cast's downcall record kept
// the application's Message.
const sec7BytesCeiling = 172

// sec7WireCeiling bounds the bytes the same run hands the transport,
// once per destination, per application byte delivered: headers and
// control traffic, with each cast sent to the members other than its
// sender (measured: 1.130, exact for the seed; 2.823 while every header
// integer took four or eight bytes, 1.503 while the sender was sent its
// own cast; 1.130 while every endpoint identifier carried its site).
// The margin is the benchmark's 3 % bound on the same ratio.
const sec7WireCeiling = 1.08

// TestSec7AllocsPerDelivery drives TOTAL:MBRSHIP:FRAG:NAK:COM at
// registry defaults on a lossless 1 ms netsim link: four members formed
// by real merges, 2000 casts of 64 bytes at one per 2 ms from members
// drawn from a fixed seed (so TOTAL's token moves for about three casts
// in four), every cast delivered at every member.
func TestSec7AllocsPerDelivery(t *testing.T) {
	net, groups, delivered := formSec7(t)
	per, bytes, wire := allocsPerDelivery(t, net, groups, delivered, 64, 2*time.Millisecond)
	if per > sec7AllocCeiling {
		t.Errorf("%.2f allocations per delivery, ceiling %.2f", per, sec7AllocCeiling)
	}
	if bytes > sec7BytesCeiling {
		t.Errorf("%.0f bytes allocated per delivery, ceiling %d", bytes, sec7BytesCeiling)
	}
	if wire > sec7WireCeiling {
		t.Errorf("%.3f wire bytes per application byte, ceiling %.2f", wire, sec7WireCeiling)
	}
}

// sec7FragLossyBytesCeiling bounds the bytes the §7 stack may allocate
// per delivery of a 16 KiB cast over a link that loses one packet in a
// hundred (measured: 23 751; the count repeats exactly for the seed,
// the 8 % is room for a change elsewhere). A delivery is 17 fragments
// received and reassembled, its quarter of a cast's cut image and
// fragment records, and its share of NAK's recovery, where each
// retransmission is a send record and the render of a 1 KiB wire image;
// a fragment NAK parks behind a gap costs its entry in NAK's buffer and
// no record. The stack stood at
// 149 734 here while FRAG grew an accumulator fragment by fragment and
// NAK copied each outgoing fragment to retain it (DESIGN.md §11, "The
// out-of-order path"), at 102 204 while every out-of-order arrival
// asked for its whole gap again (DESIGN.md §7, "A gap is asked for
// once"), at 58 957 while every event record held all of Tables 1–2
// (DESIGN.md §11, "A small Event"), at 54 022 with fixed-width
// header integers, at 53 628 while a gap was asked for the moment
// an arrival overtook it (DESIGN.md §7, "A gap is asked for once"),
// at 39 006 while every timer arm cost four allocations, at 38 699
// while the sender was sent its own cast and reassembled it, and at
// 33 043 while FRAG marshalled a cast to cut it and built each fragment
// from three allocations (DESIGN.md §11, "FRAG holds what it was
// handed"), at 28 719 while netsim copied the wire image of every
// control packet too (DESIGN.md §11, "A cast's bytes are written
// once"), at 28 685 while each fragment was rendered into a buffer
// of its own (DESIGN.md §11, "FRAG holds what it was handed"), and at
// 27 927 while every received packet's record was left to the collector
// (DESIGN.md §11, "The receive record"), and at 26 961 while NAK held
// the packet record of every fragment it parked behind a gap (same
// section, "What NAK parks"), at 24 843 while NAK asked for what
// jitter had only reordered (DESIGN.md §7, note 11), at 24 217 while
// every timer Reset reached the transport, at 24 213 while a timer
// armed netsim through SetTimer (DESIGN.md §5, "Timers"), and at 24 171
// while every record a layer built was left to the collector
// (DESIGN.md §11, "A send record is lent for its run").
const sec7FragLossyBytesCeiling = 25_651

// sec7FragLossyAllocCeiling bounds the allocations of the same
// deliveries (measured: 2.41, exact for the seed, with the same 8 %).
// A delivery's share of the sender's cut is a quarter of its two
// allocations, the cut image and the fragments' record block; the stack
// stood at 41.31 while each fragment was an event, a message and its
// headroom, the cast was marshalled whole first, and a reassembly
// allocated the Message that viewed it, at 32.04 while netsim copied
// every wire image it was handed, and at 30.22 while each fragment was
// a record of its own, rendered into a buffer of its own, and cut from
// a head buffer, at 21.97 while each of its 17 fragments, and every
// control packet, cost a packet record, at 17.33 while each fragment
// NAK parked behind a gap still did, at 7.10 while NAK asked for
// what jitter had only reordered and a sender's own delivery was a
// record of its own, at 5.64 while every timer Reset and Stop reached
// the transport, at 5.52 while every timer arm cost netsim's cancel
// func, at 4.22 while every record a layer built — a status, a
// request, a retransmission — was left to the collector, and at 2.66
// while Cast kept the application's Message.
const sec7FragLossyAllocCeiling = 2.60

// sec7FragLossyRetransmitCeiling bounds NAK's retransmissions per data
// packet in the same run (measured: 0.032, exact for the seed; 0.133
// while a status asked at once for a send it had overtaken and a gap
// was timed from the head's last advance with no margin, 0.150 while
// the sender was sent its own cast, 5.930 while every out-of-order
// arrival asked again, and 1.836 while the first one did, before the
// stream had waited out its reorder window). Each data packet has three
// receivers at 1 % loss, so about 0.03 is what the link loses; jitter
// reorders the fragments of a cast without losing them, so a rise here
// is NAK paying for reordering again.
const sec7FragLossyRetransmitCeiling = 0.05

// TestSec7FragLossyAllocBytesPerDelivery is TestSec7AllocsPerDelivery
// with the load of bench/'s sec7-frag-lossy-sim: the same four members,
// formed over the clean link, then 1 % loss and 200 µs of jitter, and
// casts of 16 KiB at one per 10 ms. It pins the allocations per
// delivery beside the bytes, and NAK's retransmissions per data packet
// from the formed group on as well, since that is where the bytes go.
func TestSec7FragLossyAllocBytesPerDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("36 MiB through four stacks: a second, fifteen under -race; CI's plain allocation-pin step runs it")
	}
	net, groups, delivered := formSec7(t)
	before := nakTotals(groups)
	net.SetDefaultLink(netsim.Link{Delay: time.Millisecond, Jitter: 200 * time.Microsecond, LossRate: 0.01})
	per, bytes, _ := allocsPerDelivery(t, net, groups, delivered, 16<<10, 10*time.Millisecond)
	if per > sec7FragLossyAllocCeiling {
		t.Errorf("%.2f allocations per delivery, ceiling %.2f", per, sec7FragLossyAllocCeiling)
	}
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

// TestReorderWithoutLossAsksNothing runs the load of
// TestSec7FragLossyAllocBytesPerDelivery over a link that reorders as
// that one does, with 200 µs of jitter, but loses nothing. Once each
// stream has met the channel's reordering in the warm-up, a request is
// a retransmission of something that was never lost: NAK must tell late
// from lost, whether the late packet is a fragment overtaken by its
// successors or a send overtaken by its sender's status.
func TestReorderWithoutLossAsksNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("36 MiB through four stacks, as TestSec7FragLossyAllocBytesPerDelivery; CI's plain allocation-pin step runs it")
	}
	net, groups, delivered := formSec7(t)
	net.SetDefaultLink(netsim.Link{Delay: time.Millisecond, Jitter: 200 * time.Microsecond})
	senders := rand.New(rand.NewSource(14))
	const warmup, casts = 200, 2000
	castLoad(net, groups, senders, warmup, 16<<10, 10*time.Millisecond)
	before := nakTotals(groups)
	*delivered = 0
	castLoad(net, groups, senders, casts, 16<<10, 10*time.Millisecond)
	if *delivered != casts*len(groups) {
		t.Fatalf("delivered %d of %d", *delivered, casts*len(groups))
	}
	after := nakTotals(groups)
	re, naks := after.Retransmits-before.Retransmits, after.NaksSent-before.NaksSent
	t.Logf("%d NAKs and %d retransmissions for %d data packets", naks, re, after.DataSent-before.DataSent)
	if re > reorderRetransmitCeiling {
		t.Errorf("%d retransmissions over a link that loses nothing, ceiling %d", re, reorderRetransmitCeiling)
	}
}

// reorderRetransmitCeiling bounds the retransmissions of
// TestReorderWithoutLossAsksNothing over 39 426 data packets (measured:
// 0, exact for the seed, with the 8 % of the pins above; 73 while a
// unicast stream learned no reorder window of its own and asked at once
// for a unicast overtaken by a later one, now timed by the window its
// source's casts taught; 4 160 while a status asked at once for a send
// it had overtaken and a gap was timed from the head's last advance
// with no margin).
const reorderRetransmitCeiling = 0

// nakTotals sums the NAK counters of the members.
func nakTotals(groups []*core.Group) nak.Stats {
	var sum nak.Stats
	for _, g := range groups {
		st := g.Focus("NAK").(*nak.Nak).Stats()
		sum.DataSent += st.DataSent
		sum.Retransmits += st.Retransmits
		sum.NaksSent += st.NaksSent
	}
	return sum
}

// formSec7 forms four members of TOTAL:MBRSHIP:FRAG:NAK:COM at registry
// defaults by real merges over a lossless 1 ms netsim link. The counter
// it returns is advanced by every CAST upcall at any member.
func formSec7(t *testing.T) (*netsim.Network, []*core.Group, *int) {
	t.Helper()
	return formSec7Named(t, func(i int) string { return string(rune('a' + i)) })
}

// formSec7Named is formSec7 with member i at site name(i).
func formSec7Named(t *testing.T, name func(i int) string) (*netsim.Network, []*core.Group, *int) {
	t.Helper()
	const members = 4
	net := netsim.New(netsim.Config{Seed: 14, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps := make([]*core.Endpoint, members)
	groups := make([]*core.Group, members)
	delivered := 0
	for i := range eps {
		spec, err := stackreg.Build("TOTAL:MBRSHIP:FRAG:NAK:COM", property.P1)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = net.NewEndpoint(name(i))
		groups[i], err = eps[i].Join("grp", spec, func(ev *core.Event) {
			if ev.Type == core.UCast {
				delivered++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Form(groups, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return net, groups, &delivered
}

// waistAllocCeiling is sec7AllocCeiling for NAK:COM alone (measured:
// 0.48; 3.13 while every timer arm cost four allocations, 2.93 while
// NAK's retained copy of a cast's body and netsim's copy of its wire
// image were two more allocations per cast, 2.29 while every received
// packet cost its record, 1.11 while every status NAK built did, 0.98
// while a cast's downcall record kept the application's Message and
// went to the collector), the part of the count every stack above the
// waist pays too, with half the margin (4 %). With four deliveries to
// a cast, a delivery costs a quarter of what the cast costs — this
// test's scheduling closure, as the Message is copied into the
// downcall record, which goes back once COM has sent it (DESIGN.md
// §11, "The downcall record is lent") — and its share of NAK's status
// rounds (DESIGN.md §11, "The socket path"), whose
// records are lent for the round's run ("A send record is lent for its
// run"); its packet record is the spent one of the packet before
// (DESIGN.md §11, "The receive record").
const waistAllocCeiling = 0.50

// waistBytesCeiling bounds the bytes those allocations come to
// (measured: 86, exact for the seed, with the §7 pins' 8 %): the
// closure, the slab bytes a cast's headers and copied body are carved
// from, and the status rounds. It stood at 129 while the downcall
// record was left to the collector, and at 410 with the packet record;
// both stood at 320 and 288 bytes — 644 per delivery here — while the
// event they hold carried all of Tables 1–2 (DESIGN.md §11, "A small
// Event"); it was 467 while every header integer took four or eight
// bytes, and netsim's copy of each wire image was that much longer,
// 432 while that copy was made at all, and 173 while every status NAK
// built was a record left to the collector.
const waistBytesCeiling = 93

// waistWireCeiling is sec7WireCeiling for the waist (measured: 1.112,
// exact for the seed), with the same 3 %.
const waistWireCeiling = 1.15

// sec7CastHeaderCeiling bounds the header bytes a §7 cast of 64 bytes
// carries on the wire, averaged over the casts of a formed group whose
// sites are named as the benchmark names them (g0-m1): COM's source
// and MBRSHIP's view tag each travel as a birth alone, so the sites'
// length does not count (measured: 12.4 without the header length in
// front; 24.4 while both carried their five-byte site and its length).
const sec7CastHeaderCeiling = 13

// TestSec7CastHeaderBytes measures what TOTAL:MBRSHIP:FRAG:NAK:COM
// pushes onto an application's cast over netsim.
func TestSec7CastHeaderBytes(t *testing.T) {
	net, groups, delivered := formSec7Named(t, func(i int) string { return fmt.Sprintf("g0-m%d", i) })
	casts, hdr := 0, 0
	for _, g := range groups {
		g.Endpoint().SetWireTap(func(_ []core.EndpointID, w []byte) {
			if m, err := message.Unmarshal(w); err == nil && len(m.Body()) == 64 {
				casts++
				hdr += m.HeaderLen()
			}
		})
	}
	for i := 0; i < 200; i++ {
		g := groups[i%len(groups)]
		net.At(net.Now()+time.Duration(i)*2*time.Millisecond, func() {
			g.Endpoint().Do(func() { g.Cast(message.New(make([]byte, 64))) })
		})
	}
	net.RunFor(2 * time.Second)
	if *delivered < 200*len(groups) || casts == 0 {
		t.Fatalf("%d of %d deliveries, %d casts on the wire", *delivered, 200*len(groups), casts)
	}
	if per := float64(hdr) / float64(casts); per > sec7CastHeaderCeiling {
		t.Errorf("%.1f header bytes per cast on the wire, ceiling %d", per, sec7CastHeaderCeiling)
	} else {
		t.Logf("%.1f header bytes per cast on the wire over %d casts", per, casts)
	}
}

// TestWaistAllocsPerDelivery is TestSec7AllocsPerDelivery for the
// waist: NAK:COM with an installed four-member view, same link, same
// load.
func TestWaistAllocsPerDelivery(t *testing.T) {
	const members = 4
	net := netsim.New(netsim.Config{Seed: 14, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	groups := make([]*core.Group, members)
	delivered := 0
	for i := range groups {
		spec, err := stackreg.Build("NAK:COM", property.P1)
		if err != nil {
			t.Fatal(err)
		}
		ep := net.NewEndpoint(string(rune('a' + i)))
		groups[i], err = ep.Join("grp", spec, func(ev *core.Event) {
			if ev.Type == core.UCast {
				delivered++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	core.InstallView(groups...)
	per, bytes, wire := allocsPerDelivery(t, net, groups, &delivered, 64, 2*time.Millisecond)
	if wire > waistWireCeiling {
		t.Errorf("%.3f wire bytes per application byte, ceiling %.2f", wire, waistWireCeiling)
	}
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
// heap allocations and the bytes allocated per delivery of the 2000,
// and the bytes handed to the transport, once per destination, per
// application byte delivered. delivered is the counter the members'
// handlers advance.
func allocsPerDelivery(t *testing.T, net *netsim.Network, groups []*core.Group, delivered *int, size int, every time.Duration) (allocs, bytes, wire float64) {
	t.Helper()
	const (
		warmup = 200
		casts  = 2000
	)
	senders := rand.New(rand.NewSource(14))
	sent := 0
	for _, g := range groups {
		g.Endpoint().SetWireTap(func(dests []core.EndpointID, w []byte) { sent += len(dests) * len(w) })
	}
	run := func(n int) { castLoad(net, groups, senders, n, size, every) }
	*delivered = 0
	run(warmup)
	if *delivered != warmup*len(groups) {
		t.Fatalf("warm-up delivered %d of %d", *delivered, warmup*len(groups))
	}

	*delivered, sent = 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(casts)
	runtime.ReadMemStats(&after)
	if *delivered != casts*len(groups) {
		t.Fatalf("delivered %d of %d", *delivered, casts*len(groups))
	}
	allocs = float64(after.Mallocs-before.Mallocs) / float64(*delivered)
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(*delivered)
	wire = float64(sent) / float64(*delivered*size)
	t.Logf("%.2f allocations and %.0f bytes per delivery over %d deliveries; %.3f wire bytes per application byte",
		allocs, bytes, *delivered, wire)
	return allocs, bytes, wire
}

// castLoad casts n messages of size bytes at one per every, from members
// drawn from senders, and runs the network until half a second after
// the last.
func castLoad(net *netsim.Network, groups []*core.Group, senders *rand.Rand, n, size int, every time.Duration) {
	body := make([]byte, size)
	for i := 0; i < n; i++ {
		g := groups[senders.Intn(len(groups))]
		net.At(net.Now()+time.Duration(i)*every, func() { g.Cast(message.New(body)) })
	}
	net.RunFor(time.Duration(n)*every + 500*time.Millisecond)
}
