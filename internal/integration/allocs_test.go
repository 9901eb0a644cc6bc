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
// per application delivery in steady state (measured: 1.65). The count
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
// request (DESIGN.md §5, "Timers"); bench/ measures the same thing with
// a load generator around it, outside `go test ./...`.
const sec7AllocCeiling = 1.78

// sec7BytesCeiling bounds the bytes the same deliveries may allocate
// (measured: 323, exact for the seed; the 8 % is room for a change
// elsewhere). The stack stood at 1 177 here while every record that
// carries an event — packet, downcall, send, MBRSHIP's self-delivery —
// held all of Tables 1–2 (DESIGN.md §11, "A small Event"), at 875
// with fixed-width header integers, at 753 while every timer arm
// cost four allocations, at 729 while the sender was sent its own
// cast, at 686 while a cast's bytes were copied twice on their way to
// the wire, at 651 while every received packet cost its record, at
// 375 while the sender's own delivery did, and at 327 while every timer
// Reset reached the transport.
const sec7BytesCeiling = 349

// sec7WireCeiling bounds the bytes the same run hands the transport,
// once per destination, per application byte delivered: headers and
// control traffic, with each cast sent to the members other than its
// sender (measured: 1.130, exact for the seed; 2.823 while every header
// integer took four or eight bytes, 1.503 while the sender was sent its
// own cast). The margin is the benchmark's 3 % bound on the same ratio.
const sec7WireCeiling = 1.16

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
// hundred (measured: 24 213; the count repeats exactly for the seed,
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
// jitter had only reordered (DESIGN.md §7, note 11), and at 24 217
// while every timer Reset reached the transport (DESIGN.md §5, "Timers").
const sec7FragLossyBytesCeiling = 26_150

// sec7FragLossyAllocCeiling bounds the allocations of the same
// deliveries (measured: 5.52, exact for the seed, with the same 8 %).
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
// record of its own, and at 5.64 while every timer Reset and Stop
// reached the transport.
const sec7FragLossyAllocCeiling = 5.96

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
// 73, exact for the seed, with the 8 % of the pins above; 4 160 while a
// status asked at once for a send it had overtaken and a gap was timed
// from the head's last advance with no margin). The cast streams ask
// for nothing; the 73 are unicasts overtaken by a later unicast on the
// same pair, whose stream learns no reorder window and asks at once.
const reorderRetransmitCeiling = 79

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
		eps[i] = net.NewEndpoint(string(rune('a' + i)))
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
// 1.16; 3.13 while every timer arm cost four allocations, 2.93 while
// NAK's retained copy of a cast's body and netsim's copy of its wire
// image were two more allocations per cast, 2.29 while every received
// packet cost its record), the part of the count every stack above the
// waist pays too, with half the margin (4 %). With four deliveries to
// a cast, a delivery costs a quarter of what the cast costs — the
// application's Message, the downcall record that holds the cast's
// whole wire image, and this test's scheduling closure — and its share
// of NAK's status rounds (DESIGN.md §11, "The socket path"); its packet
// record is the spent one of the packet before (DESIGN.md §11, "The
// receive record").
const waistAllocCeiling = 1.21

// waistBytesCeiling bounds the bytes those allocations come to
// (measured: 174, exact for the seed, with the §7 pins' 8 %). Most of
// it is the downcall record. With the packet record it stood at 410;
// both stood at 320 and 288 bytes — 644 per delivery here — while the
// event they hold carried all of Tables 1–2 (DESIGN.md §11, "A small
// Event"); it was 467 while every header integer took four or eight
// bytes, and netsim's copy of each wire image was that much longer,
// and 432 while that copy was made at all.
const waistBytesCeiling = 188

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
	per, bytes, _ := allocsPerDelivery(t, net, groups, &delivered, 64, 2*time.Millisecond)
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
