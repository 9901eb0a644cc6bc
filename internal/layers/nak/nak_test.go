package nak_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/nak"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/wire"
)

// netPair builds two NAK:COM endpoints with a two-member view over a
// configurable network.
func netPair(t *testing.T, link netsim.Link, opts ...nak.Option) (*netsim.Network, *core.Group, *core.Group, *[]*core.Event, *[]*core.Event) {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: 7, DefaultLink: link})
	mk := func(name string, sink *[]*core.Event) *core.Group {
		ep := net.NewEndpoint(name)
		g, err := ep.Join("g", core.StackSpec{nak.NewWith(opts...), com.New},
			func(ev *core.Event) { *sink = append(*sink, ev) })
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var evA, evB []*core.Event
	ga := mk("a", &evA)
	gb := mk("b", &evB)
	view := core.NewView(core.ViewID{Seq: 1, Coord: ga.Endpoint().ID()}, "g",
		[]core.EndpointID{ga.Endpoint().ID(), gb.Endpoint().ID()})
	ga.InstallView(view)
	gb.InstallView(view)
	return net, ga, gb, &evA, &evB
}

func bodies(evs []*core.Event, t core.EventType) []string {
	var out []string
	for _, ev := range evs {
		if ev.Type == t {
			out = append(out, string(ev.Msg.Body()))
		}
	}
	return out
}

func TestReorderedDeliveryIsFIFO(t *testing.T) {
	// Heavy jitter reorders nearly everything; NAK must straighten it.
	net, ga, _, _, evB := netPair(t, netsim.Link{Delay: time.Millisecond, Jitter: 10 * time.Millisecond},
		nak.WithSuspectAfter(0))
	for i := 0; i < 50; i++ {
		i := i
		net.At(time.Duration(i)*time.Millisecond, func() {
			ga.Cast(message.New([]byte(fmt.Sprintf("%03d", i))))
		})
	}
	net.RunFor(3 * time.Second)
	got := bodies(*evB, core.UCast)
	if len(got) != 50 {
		t.Fatalf("delivered %d, want 50", len(got))
	}
	for i, b := range got {
		if b != fmt.Sprintf("%03d", i) {
			t.Fatalf("position %d = %q (FIFO violated): %v", i, b, got)
		}
	}
}

func TestDuplicatesSuppressed(t *testing.T) {
	net, ga, gb, _, evB := netPair(t, netsim.Link{Delay: time.Millisecond, DupRate: 0.5},
		nak.WithSuspectAfter(0))
	for i := 0; i < 30; i++ {
		i := i
		net.At(time.Duration(i)*time.Millisecond, func() {
			ga.Cast(message.New([]byte(fmt.Sprintf("%d", i))))
		})
	}
	net.RunFor(time.Second)
	if got := len(bodies(*evB, core.UCast)); got != 30 {
		t.Fatalf("delivered %d under duplication, want 30", got)
	}
	l := gb.Focus("NAK").(*nak.Nak)
	if l.Stats().Duplicates == 0 {
		t.Error("no duplicates recorded despite DupRate 0.5")
	}
}

func TestSuspicionAfterSilence(t *testing.T) {
	net, ga, _, evA, _ := netPair(t, netsim.Link{Delay: time.Millisecond},
		nak.WithStatusPeriod(10*time.Millisecond), nak.WithSuspectAfter(4))
	other := core.EndpointID{Site: "b", Birth: 2}
	net.RunFor(20 * time.Millisecond) // let both sides exchange status
	net.Crash(other)
	net.RunFor(time.Second)
	var problems []*core.Event
	for _, ev := range *evA {
		if ev.Type == core.UProblem {
			problems = append(problems, ev)
		}
	}
	if len(problems) != 1 {
		t.Fatalf("a raised %d PROBLEMs, want 1", len(problems))
	}
	if problems[0].Source != other {
		t.Errorf("PROBLEM about %v, want %v", problems[0].Source, other)
	}
	_ = ga
}

func TestNoSuspicionWhileTalking(t *testing.T) {
	net, ga, _, evA, _ := netPair(t, netsim.Link{Delay: time.Millisecond},
		nak.WithStatusPeriod(10*time.Millisecond), nak.WithSuspectAfter(4))
	net.RunFor(2 * time.Second)
	for _, ev := range *evA {
		if ev.Type == core.UProblem {
			t.Fatalf("spurious PROBLEM: %v", ev)
		}
	}
	_ = ga
}

func TestTailLossRecoveredByStatus(t *testing.T) {
	// Lose a burst including the final messages: only the status
	// exchange can reveal the missing tail.
	net, ga, _, _, evB := netPair(t, netsim.Link{Delay: time.Millisecond},
		nak.WithStatusPeriod(10*time.Millisecond), nak.WithSuspectAfter(0))
	ids := []core.EndpointID{ga.Endpoint().ID(), {Site: "b", Birth: 2}}
	net.At(0, func() { ga.Cast(message.New([]byte("first"))) })
	net.At(5*time.Millisecond, func() {
		net.SetLink(ids[0], ids[1], netsim.Link{Delay: time.Millisecond, LossRate: 1})
		ga.Cast(message.New([]byte("last")))
	})
	net.At(20*time.Millisecond, func() {
		net.SetLink(ids[0], ids[1], netsim.Link{Delay: time.Millisecond})
	})
	net.RunFor(2 * time.Second)
	got := bodies(*evB, core.UCast)
	if len(got) != 2 || got[1] != "last" {
		t.Fatalf("delivered %v, want [first last]", got)
	}
}

func TestUnicastStreamsIndependentFromCast(t *testing.T) {
	net, ga, _, _, evB := netPair(t, netsim.Link{Delay: time.Millisecond}, nak.WithSuspectAfter(0))
	bID := core.EndpointID{Site: "b", Birth: 2}
	net.At(0, func() {
		ga.Cast(message.New([]byte("m-cast")))
		ga.Send([]core.EndpointID{bID}, message.New([]byte("m-send")))
		ga.Cast(message.New([]byte("m-cast-2")))
	})
	net.RunFor(time.Second)
	if got := bodies(*evB, core.UCast); len(got) != 2 {
		t.Fatalf("casts = %v", got)
	}
	if got := bodies(*evB, core.USend); len(got) != 1 || got[0] != "m-send" {
		t.Fatalf("sends = %v", got)
	}
}

// Control messages as a peer's NAK layer would send them, for the
// hostile-input tests below: [kind][stream][lo][hi].
const (
	wireData        = 1
	wireNak         = 3
	wirePlaceholder = 5
	wireStreamCast  = 1
)

func control(kind uint8, lo, hi uint64) *message.Message {
	m := message.New(nil)
	m.PushUint64(hi)
	m.PushUint64(lo)
	m.PushUint8(wireStreamCast)
	m.PushUint8(kind)
	return m
}

func data(seq uint64, body string) *message.Message {
	m := message.New([]byte(body))
	m.PushUint64(seq)
	m.PushUint8(wireData)
	return m
}

// quietNak is a NAK layer alone in the harness with its timers off, so
// only injected events move it.
func quietNak(t *testing.T) (*layertest.Harness, *nak.Nak, core.EndpointID) {
	h := layertest.New(t, nak.NewWith(nak.WithStatusPeriod(0), nak.WithNakResend(0)))
	peer := layertest.ID("peer", 2)
	h.InstallView(h.Self(), peer)
	return h, h.G.Focus("NAK").(*nak.Nak), peer
}

// A NAK whose range was damaged in flight asks for sequence numbers
// that were never assigned. It is answered for what exists and costs
// nothing for the rest — not one loop iteration per number up to 2^64.
func TestGarbledNakRangeIsClamped(t *testing.T) {
	h, l, peer := quietNak(t)
	for _, b := range []string{"one", "two", "three"} {
		h.InjectDown(core.NewCast(message.New([]byte(b))))
	}
	h.Reset()
	for _, r := range [][2]uint64{{0, 1 << 60}, {2, ^uint64(0)}, {1 << 60, 1 << 61}, {9, 3}} {
		h.InjectUp(&core.Event{Type: core.USend, Msg: control(wireNak, r[0], r[1]), Source: peer})
	}
	if got := l.Stats().Retransmits; got != 3+2 {
		t.Errorf("%d retransmissions, want 3 for [0, 2^60] and 2 for [2, 2^64-1]", got)
	}
	if got := l.Stats().Placeholders; got != 0 {
		t.Errorf("%d place holders for sequence numbers never sent", got)
	}
	if got := len(h.DownOfType(core.DSend)); got != 5 {
		t.Errorf("%d messages sent in answer, want 5", got)
	}
}

// A place holder that continues the stream accounts for its whole range
// at once, however wide, and what had arrived out of order inside the
// range still comes up in order.
func TestPlaceholderContinuingTheStream(t *testing.T) {
	for _, hi := range []uint64{2, 1 << 60, ^uint64(0)} {
		h, l, peer := quietNak(t)
		h.InjectUp(&core.Event{Type: core.UCast, Msg: data(4, "four"), Source: peer})
		h.InjectUp(&core.Event{Type: core.UCast, Msg: data(3, "three"), Source: peer})
		h.Reset()
		h.InjectUp(&core.Event{Type: core.USend, Msg: control(wirePlaceholder, 1, hi), Source: peer})
		ups := h.Top.UpEvents
		if len(ups) != 3 || ups[0].Type != core.ULostMessage ||
			string(ups[1].Msg.Body()) != "three" || string(ups[2].Msg.Body()) != "four" {
			t.Fatalf("hi=%d: got %v, want LOST_MESSAGE, three, four", hi, ups)
		}
		if st := l.Stats(); st.LostReported != 1 || st.RangeDropped != 0 {
			t.Errorf("hi=%d: stats %+v, want one loss reported and nothing dropped", hi, st)
		}
		// The stream goes on from the end of the range, or of what was
		// buffered beyond it.
		next := max(hi, 4) + 1
		if next != 0 {
			h.InjectUp(&core.Event{Type: core.UCast, Msg: data(next, "next"), Source: peer})
			if got := h.LastUp(); got.Type != core.UCast || string(got.Msg.Body()) != "next" {
				t.Errorf("hi=%d: sequence number %d not delivered after the place holder", hi, next)
			}
		}
	}
}

// A place holder ahead of the stream parks a marker per sequence number
// so FIFO order survives; that is affordable for the ranges a sender
// produces and refused for one only line damage can.
func TestPlaceholderAheadOfTheStream(t *testing.T) {
	h, l, peer := quietNak(t)
	h.InjectUp(&core.Event{Type: core.USend, Msg: control(wirePlaceholder, 3, 4), Source: peer})
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data(5, "five"), Source: peer})
	if got := bodies(h.Top.UpEvents, core.UCast); len(got) != 0 {
		t.Fatalf("delivered %v across a gap", got)
	}
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data(1, "one"), Source: peer})
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data(2, "two"), Source: peer})
	if got := bodies(h.Top.UpEvents, core.UCast); fmt.Sprint(got) != "[one two five]" {
		t.Fatalf("delivered %v, want [one two five]", got)
	}
	if got := len(h.UpOfType(core.ULostMessage)); got != 1 {
		t.Errorf("%d LOST_MESSAGE upcalls for one place holder", got)
	}

	h.Reset()
	for _, r := range [][2]uint64{{100, 100 + 4*1024}, {100, 1 << 60}, {1 << 60, ^uint64(0)}} {
		h.InjectUp(&core.Event{Type: core.USend, Msg: control(wirePlaceholder, r[0], r[1]), Source: peer})
	}
	if got := l.Stats().RangeDropped; got != 3 {
		t.Errorf("%d impossible ranges dropped, want 3", got)
	}
	if got := len(h.Top.UpEvents); got != 0 {
		t.Errorf("%d upcalls for dropped place holders", got)
	}
	// The widest range accepted, ending at the last sequence number
	// there is: the marker loop must not wrap around.
	h.InjectUp(&core.Event{Type: core.USend, Msg: control(wirePlaceholder, ^uint64(0)-4*1024+1, ^uint64(0)), Source: peer})
	if got := len(h.UpOfType(core.ULostMessage)); got != 1 {
		t.Errorf("widest acceptable place holder not reported: %d upcalls", got)
	}
}

// A place holder ahead of the stream that covers a sequence number
// already held leaves the arrival where it is: it is delivered in its
// turn, and the numbers around it are stepped over.
func TestPlaceholderOverHeldArrival(t *testing.T) {
	h, l, peer := quietNak(t)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data(4, "four"), Source: peer})
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data(7, "seven"), Source: peer})
	h.InjectUp(&core.Event{Type: core.USend, Msg: control(wirePlaceholder, 3, 5), Source: peer})
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data(4, "four again"), Source: peer})
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data(5, "five, too late"), Source: peer})
	if got := bodies(h.Top.UpEvents, core.UCast); len(got) != 0 {
		t.Fatalf("delivered %v across a gap", got)
	}
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data(1, "one"), Source: peer})
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data(2, "two"), Source: peer})
	h.InjectUp(&core.Event{Type: core.UCast, Msg: data(6, "six"), Source: peer})
	if got := bodies(h.Top.UpEvents, core.UCast); fmt.Sprint(got) != "[one two four six seven]" {
		t.Fatalf("delivered %v, want [one two four six seven]", got)
	}
	if st := l.Stats(); st.LostReported != 1 || st.Duplicates != 2 || st.OutOfOrder != 2 {
		t.Errorf("stats %+v, want 1 loss reported, 2 duplicates, 2 out of order", st)
	}
}

const (
	wireUniData   = 2
	wireStreamUni = 2
)

// nakFor asks for [lo, hi] of the unicast stream.
func nakFor(lo, hi uint64) *message.Message {
	m := control(wireNak, lo, hi)
	m.PopUint8()
	m.PopUint8()
	m.PushUint8(wireStreamUni)
	m.PushUint8(wireNak)
	return m
}

// A send to one member is sequenced in place: the event the layer was
// handed goes on down with [kindUniData][seq] pushed onto its message,
// and the retransmission copy views that message's header storage from
// where it stood before the push. What the layers underneath then push
// lands below that, so a retransmission is byte for byte the first
// transmission, and the body the application handed in is never written
// — and, once sent, no longer read.
func TestRetransmissionIsTheFirstTransmission(t *testing.T) {
	h, l, peer := quietNak(t)
	body := []byte("application body")
	handed := append([]byte(nil), body...)
	m := message.New(body)
	m.PushUint32(0xA1B2C3D4) // a header from the layers above
	sent := core.NewSend(m, []core.EndpointID{peer})
	h.InjectDown(sent)

	first := h.LastDown()
	if first != sent || first.Msg != m {
		t.Fatal("a single-destination send did not go down in place: a different event or message came out")
	}
	firstWire := first.Msg.Marshal()
	if !bytes.Equal(body, handed) {
		t.Fatalf("the application's body was written: %q", body)
	}
	// The layers underneath frame onto the same message, and the
	// application reuses its buffer.
	first.Msg.PushUint64(0xDEADBEEFDEADBEEF)
	first.Msg.PushString("com's source address")
	for i := range body {
		body[i] = 'X'
	}

	h.Reset()
	h.InjectUp(&core.Event{Type: core.USend, Msg: nakFor(1, 1), Source: peer})
	re := h.LastDown()
	if re == nil || re == sent || len(re.Dests) != 1 || re.Dests[0] != peer {
		t.Fatalf("retransmission: %v", re)
	}
	if got := re.Msg.Marshal(); !bytes.Equal(got, firstWire) {
		t.Fatalf("retransmission differs from the first transmission\n first %x\n again %x", firstWire, got)
	}
	if got := l.Stats(); got.DataSent != 1 || got.Retransmits != 1 {
		t.Errorf("stats %+v, want one send and one retransmission", got)
	}
}

// A send to three members is three sequenced copies, each on its own
// pair's stream, the last of them the event itself; what is pushed onto
// one is seen by no other, first time or retransmitted.
func TestSubsetSendCopiesAreIndependent(t *testing.T) {
	h, _, peer := quietNak(t)
	p2, p3 := layertest.ID("p2", 3), layertest.ID("p3", 4)
	h.InjectDown(core.NewSend(message.New([]byte("earlier")), []core.EndpointID{p2})) // p2's stream is one ahead
	h.Reset()

	m := message.New([]byte("to three"))
	m.PushUint16(0xBEEF)
	sent := core.NewSend(m, []core.EndpointID{peer, p2, p3})
	h.InjectDown(sent)
	downs := h.DownOfType(core.DSend)
	if len(downs) != 3 {
		t.Fatalf("%d sends came out, want 3", len(downs))
	}
	if downs[2] != sent || downs[0].Msg == m || downs[1].Msg == m || downs[0].Msg == downs[1].Msg {
		t.Fatal("want two copies, then the event itself for the last destination")
	}
	dests := []core.EndpointID{peer, p2, p3}
	seqs := []uint64{1, 2, 1}
	var firsts [][]byte
	for i, ev := range downs {
		if len(ev.Dests) != 1 || ev.Dests[0] != dests[i] {
			t.Fatalf("copy %d addressed to %v, want %v", i, ev.Dests, dests[i])
		}
		firsts = append(firsts, ev.Msg.Marshal())
		ev.Msg.PushUint8(uint8(0xC0 + i)) // a lower layer's header, different on each
	}
	for i, ev := range downs {
		if got := ev.Msg.PopUint8(); got != uint8(0xC0+i) {
			t.Fatalf("copy %d: lower header %#x, want %#x: another copy's push showed through", i, got, 0xC0+i)
		}
		if !bytes.Equal(ev.Msg.Marshal(), firsts[i]) {
			t.Fatalf("copy %d changed when the others were pushed onto", i)
		}
		if kind, seq := ev.Msg.PopUint8(), ev.Msg.PopUint64(); kind != wireUniData || seq != seqs[i] {
			t.Fatalf("copy %d: kind %d seq %d, want %d and %d", i, kind, seq, wireUniData, seqs[i])
		}
		if hdr := ev.Msg.PopUint16(); hdr != 0xBEEF || string(ev.Msg.Body()) != "to three" {
			t.Fatalf("copy %d: upper header %#x body %q", i, hdr, ev.Msg.Body())
		}
	}
	for i, dst := range dests {
		h.Reset()
		h.InjectUp(&core.Event{Type: core.USend, Msg: nakFor(seqs[i], seqs[i]), Source: dst})
		re := h.LastDown()
		if re == nil || !bytes.Equal(re.Msg.Marshal(), firsts[i]) {
			t.Fatalf("retransmission to %v differs from what it was first sent", dst)
		}
	}
}

const (
	wireStatus = 4
	resend     = 40 * time.Millisecond
)

// askingNak is quietNak with the re-NAK timer on: status rounds are
// still injected by hand, but a request is repeated every resend.
func askingNak(t *testing.T) (*layertest.Harness, *nak.Nak, core.EndpointID) {
	h := layertest.New(t, nak.NewWith(nak.WithStatusPeriod(0), nak.WithNakResend(resend)))
	peer := layertest.ID("peer", 2)
	h.InstallView(h.Self(), peer)
	h.Reset()
	return h, h.G.Focus("NAK").(*nak.Nak), peer
}

// status is a peer's status round: its cast send count, and the
// delivered counts of the cast streams it lists; its unicast positions
// are zero.
func status(castSent uint64, srcs []core.EndpointID, counts []uint64) *message.Message {
	m := message.New(nil)
	m.PushUint64(0)
	m.PushUint64(0)
	m.PushUint64(castSent)
	wire.PushCounts(m, counts)
	wire.PushIDList(m, srcs)
	m.PushUint8(wireStatus)
	return m
}

// naks lists the [lo, hi] ranges of the NAKs the layer has sent since
// the last Reset, read where [kind][stream][lo][hi] lies.
func naks(h *layertest.Harness) [][2]uint64 {
	var out [][2]uint64
	for _, ev := range h.DownOfType(core.DSend) {
		if hdr := ev.Msg.Header(); len(hdr) == 18 && hdr[0] == wireNak {
			out = append(out, [2]uint64{binary.BigEndian.Uint64(hdr[2:]), binary.BigEndian.Uint64(hdr[10:])})
		}
	}
	return out
}

// A gap is asked for once, however many arrivals land beyond it, and
// asked again only by the re-NAK timer, once per interval. A fresh gap
// above what was asked is asked for at once.
func TestGapIsAskedOnce(t *testing.T) {
	h, l, peer := askingNak(t)
	up := func(seqs ...uint64) {
		for _, seq := range seqs {
			h.InjectUp(&core.Event{Type: core.UCast, Msg: data(seq, fmt.Sprint(seq)), Source: peer})
		}
	}
	expect := func(when string, want ...[2]uint64) {
		t.Helper()
		if got := naks(h); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: NAKs %v, want %v", when, got, want)
		}
	}
	up(3, 4, 5, 6)
	expect("four arrivals beyond [1, 2]", [2]uint64{1, 2})
	h.Run(resend - time.Millisecond)
	up(7, 8)
	expect("within the interval", [2]uint64{1, 2})
	h.Run(time.Millisecond)
	expect("one interval on", [2]uint64{1, 2}, [2]uint64{1, 2})
	up(9)
	h.Run(resend - time.Millisecond)
	expect("within the second interval", [2]uint64{1, 2}, [2]uint64{1, 2})

	// 1 and 2 arrive, 10 is still missing: 11 exposes a gap nobody asked
	// for, and asks for it without waiting for the timer.
	h.Reset()
	up(1, 2, 11, 12)
	expect("a new gap", [2]uint64{10, 10})
	if got := bodies(h.Top.UpEvents, core.UCast); len(got) != 9 {
		t.Fatalf("delivered %v, want 1 to 9", got)
	}
	if st := l.Stats(); st.NaksSent != 3 {
		t.Errorf("%d NAKs sent, want 3", st.NaksSent)
	}
}

// A status round asks for a tail; its first retransmission arrives next
// and leaves nothing pending, which cancels the re-NAK timer, so the
// request must be forgotten with it: a later retransmission in the
// asked range that is lost is asked for again by the next arrival, and
// by the timer if that is lost too. Were it still on record, nothing
// would ask for it again, and its sender would in the end trim it and
// answer with a place holder.
func TestLostRetransmissionIsAskedAgain(t *testing.T) {
	h, l, peer := askingNak(t)
	up := func(seq uint64) {
		h.InjectUp(&core.Event{Type: core.UCast, Msg: data(seq, fmt.Sprint(seq)), Source: peer})
	}
	up(1)
	h.InjectUp(&core.Event{Type: core.USend, Msg: status(5, nil, nil), Source: peer})
	if got := naks(h); fmt.Sprint(got) != "[[2 5]]" {
		t.Fatalf("status exposing [2, 5]: NAKs %v", got)
	}
	up(2) // the first retransmission: nothing pending now
	// 3 is lost.
	h.Reset()
	up(4)
	if got := naks(h); fmt.Sprint(got) != "[[3 3]]" {
		t.Fatalf("4 beyond the lost retransmission of 3: NAKs %v, want [[3 3]]", got)
	}
	h.Run(resend)
	if got := naks(h); fmt.Sprint(got) != "[[3 3] [3 3]]" {
		t.Fatalf("one interval on, with 3 lost again: NAKs %v, want [[3 3] [3 3]]", got)
	}
	up(5)
	up(3)
	if got := bodies(h.Top.UpEvents, core.UCast); fmt.Sprint(got) != "[3 4 5]" {
		t.Fatalf("delivered %v after the gap, want [3 4 5]", got)
	}
	if st := l.Stats(); st.LostReported != 0 || len(h.UpOfType(core.ULostMessage)) != 0 {
		t.Errorf("a loss was reported: %+v", st)
	}
	h.Reset()
	h.Run(3 * resend)
	if got := naks(h); len(got) != 0 {
		t.Errorf("NAKs %v with nothing missing", got)
	}
}

// A sender that receives its own casts keeps them until its own receive
// stream has delivered them, not only until the other members have: a
// lost self-addressed copy is then retransmitted, not reported lost.
// Where the transport does not loop casts back, the sender is owed
// nothing and the other members' acknowledgements alone trim.
func TestOwnCastsAreKeptUntilDelivered(t *testing.T) {
	for _, loops := range []bool{true, false} {
		h, l, peer := quietNak(t)
		self := h.Self()
		for _, b := range []string{"one", "two", "three"} {
			h.InjectDown(core.NewCast(message.New([]byte(b))))
		}
		if loops {
			h.InjectUp(&core.Event{Type: core.UCast, Msg: data(1, "one"), Source: self})
		}
		// The peer has all three.
		h.InjectUp(&core.Event{Type: core.USend, Msg: status(0, []core.EndpointID{self}, []uint64{3}), Source: peer})
		h.Reset()
		asker := peer
		if loops {
			asker = self
		}
		h.InjectUp(&core.Event{Type: core.USend, Msg: control(wireNak, 2, 3), Source: asker})
		st := l.Stats()
		if loops && (st.Retransmits != 2 || st.Placeholders != 0) {
			t.Errorf("own copies of 2 and 3 lost: %d retransmissions and %d place holders, want 2 and 0", st.Retransmits, st.Placeholders)
		}
		if !loops && (st.Retransmits != 0 || st.Placeholders != 1) {
			t.Errorf("no loopback: %d retransmissions and %d place holders, want 0 and 1", st.Retransmits, st.Placeholders)
		}
		if !loops {
			continue
		}
		// Once its own stream has them too, the next status round trims.
		h.InjectUp(&core.Event{Type: core.UCast, Msg: data(2, "two"), Source: self})
		h.InjectUp(&core.Event{Type: core.UCast, Msg: data(3, "three"), Source: self})
		h.InjectUp(&core.Event{Type: core.USend, Msg: status(0, []core.EndpointID{self}, []uint64{3}), Source: peer})
		h.InjectUp(&core.Event{Type: core.USend, Msg: control(wireNak, 1, 3), Source: self})
		if st := l.Stats(); st.Placeholders != 1 || st.Retransmits != 2 {
			t.Errorf("after delivery: %d place holders and %d retransmissions, want 1 and still 2", st.Placeholders, st.Retransmits)
		}
	}
}
