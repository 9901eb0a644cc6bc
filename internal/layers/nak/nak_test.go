package nak_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/nak"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/netsim"
)

// netPair builds two NAK:COM endpoints with a two-member view over a
// configurable network.
func netPair(t *testing.T, link netsim.Link, opts ...nak.Option) (*netsim.Network, *core.Group, *core.Group, *[]*core.Event, *[]*core.Event) {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: 7, DefaultLink: link})
	mk := func(name string, sink *[]*core.Event) *core.Group {
		ep := net.NewEndpoint(name)
		var g *core.Group
		g, err := ep.Join("g", core.StackSpec{nak.NewWith(opts...), com.New},
			func(ev *core.Event) {
				g.Hold(ev)
				*sink = append(*sink, ev)
			})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var evA, evB []*core.Event
	ga := mk("a", &evA)
	gb := mk("b", &evB)
	core.InstallView(ga, gb)
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
	m.PushUint(hi)
	m.PushUint(lo)
	m.PushUint8(wireStreamCast)
	m.PushUint8(kind)
	return m
}

func data(seq uint64, body string) *message.Message {
	m := message.New([]byte(body))
	m.PushUint(seq)
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
	m.PushUint(0xA1B2C3D4) // a header from the layers above
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
	first.Msg.PushUint(0xDEADBEEFDEADBEEF)
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
	m.PushUint(0xBEEF)
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
		if kind, seq := ev.Msg.PopUint8(), ev.Msg.PopUint(); kind != wireUniData || seq != seqs[i] {
			t.Fatalf("copy %d: kind %d seq %d, want %d and %d", i, kind, seq, wireUniData, seqs[i])
		}
		if hdr := ev.Msg.PopUint(); hdr != 0xBEEF || string(ev.Msg.Body()) != "to three" {
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

// status is a peer's status to us: its cast send count, and how much of
// our cast stream it has delivered; its unicast positions are zero.
func status(castSent, acked uint64) *message.Message {
	m := message.New(nil)
	m.PushUint(0)
	m.PushUint(0)
	m.PushUint(castSent)
	m.PushUint(acked)
	m.PushUint8(wireStatus)
	return m
}

// naks lists the [lo, hi] ranges of the NAKs the layer has sent since
// the last Reset, popped from a copy of each [kind][stream][lo][hi].
func naks(h *layertest.Harness) [][2]uint64 {
	var out [][2]uint64
	for _, ev := range h.DownOfType(core.DSend) {
		m := ev.Msg.Clone()
		if m.HeaderLen() == 0 || m.PopUint8() != wireNak {
			continue
		}
		m.PopUint8() // the stream
		if lo, hi := m.PopUint(), m.PopUint(); m.HeaderLen() == 0 {
			out = append(out, [2]uint64{lo, hi})
		}
	}
	return out
}

// arrive injects casts from peer with the given sequence numbers:
// originals as core.UCast, retransmissions as core.USend.
func arrive(h *layertest.Harness, peer core.EndpointID, typ core.EventType, seqs ...uint64) {
	for _, seq := range seqs {
		h.InjectUp(&core.Event{Type: typ, Msg: data(seq, fmt.Sprint(seq)), Source: peer})
	}
}

// expectNaks fails unless the layer has sent exactly the requests want
// since the last Reset.
func expectNaks(t *testing.T, h *layertest.Harness, when string, want ...[2]uint64) {
	t.Helper()
	if got := naks(h); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: NAKs %v, want %v", when, got, want)
	}
}

// A gap is asked for once, however many arrivals land beyond it, and
// asked again only by the re-NAK timer, once per interval. A fresh gap
// above what was asked is asked for at once: the late 1 and 2 are
// retransmissions, which teach the stream no reorder window.
func TestGapIsAskedOnce(t *testing.T) {
	h, l, peer := askingNak(t)
	up := func(seqs ...uint64) { arrive(h, peer, core.UCast, seqs...) }
	up(3, 4, 5, 6)
	expectNaks(t, h, "four arrivals beyond [1, 2]", [2]uint64{1, 2})
	h.Run(resend - time.Millisecond)
	up(7, 8)
	expectNaks(t, h, "within the interval", [2]uint64{1, 2})
	h.Run(time.Millisecond)
	expectNaks(t, h, "one interval on", [2]uint64{1, 2}, [2]uint64{1, 2})
	up(9)
	h.Run(resend - time.Millisecond)
	expectNaks(t, h, "within the second interval", [2]uint64{1, 2}, [2]uint64{1, 2})

	// 1 and 2 arrive, 10 is still missing: 11 exposes a gap nobody asked
	// for, and asks for it without waiting for the timer.
	h.Reset()
	arrive(h, peer, core.USend, 1, 2)
	up(11, 12)
	expectNaks(t, h, "a new gap", [2]uint64{10, 10})
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
	h.InjectUp(&core.Event{Type: core.USend, Msg: status(5, 0), Source: peer})
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

// An original that arrives behind later ones teaches the stream how long
// the channel reorders: a second burst reordered as much sends no NAK,
// and a loss inside one is asked for once that window and a quarter
// have passed, for the gap as it stands then.
func TestReorderWindowIsLearned(t *testing.T) {
	h, _, peer := askingNak(t)
	const ms = time.Millisecond
	arrive(h, peer, core.UCast, 2, 3)
	expectNaks(t, h, "first reorder, nothing learned yet", [2]uint64{1, 1})
	h.Run(2 * ms)
	arrive(h, peer, core.UCast, 1) // overtaken for 2 ms
	h.Reset()

	arrive(h, peer, core.UCast, 5, 6)
	h.Run(ms)
	arrive(h, peer, core.UCast, 4)
	h.Run(resend)
	expectNaks(t, h, "a second burst within the window")

	arrive(h, peer, core.UCast, 8, 10) // 9 is lost
	h.Run(ms)
	arrive(h, peer, core.UCast, 7)
	h.Run(ms + ms/2 - time.Microsecond)
	expectNaks(t, h, "a loss inside the window")
	h.Run(time.Microsecond)
	expectNaks(t, h, "the window and a quarter on", [2]uint64{9, 9})
	arrive(h, peer, core.USend, 9)
	if got := bodies(h.Top.UpEvents, core.UCast); fmt.Sprint(got) != "[4 5 6 7 8 9 10]" {
		t.Fatalf("delivered %v since the first burst, want 4 to 10", got)
	}
}

// uniData is a peer's unicast to us, number seq on its pair stream.
func uniData(seq uint64) *message.Message {
	m := message.New([]byte(fmt.Sprint(seq)))
	m.PushUint(seq)
	m.PushUint8(wireUniData)
	return m
}

// uniStatus is a peer's status to us claiming uniSent unicasts on its
// pair stream, and nothing else.
func uniStatus(uniSent uint64) *message.Message {
	m := message.New(nil)
	m.PushUint(0)
	m.PushUint(uniSent)
	m.PushUint(0)
	m.PushUint(0)
	m.PushUint8(wireStatus)
	return m
}

// A status can overtake a send still on its way, and a unicast stream
// learns no reorder window. The status that first claims a send asks
// nothing for it: the send arrives within the status period, and the
// next status, which claims it too, finds nothing missing. A send that
// is lost is asked for by that next status.
func TestStatusOvertakingASendAsksNothing(t *testing.T) {
	h, l, peer := askingNak(t)
	for seq := uint64(1); seq <= 3; seq++ {
		h.InjectUp(&core.Event{Type: core.USend, Msg: uniStatus(seq), Source: peer}) // ahead of unicast seq
		h.Run(time.Millisecond)
		h.InjectUp(&core.Event{Type: core.USend, Msg: uniData(seq), Source: peer})
		h.Run(49 * time.Millisecond)
	}
	h.InjectUp(&core.Event{Type: core.USend, Msg: uniStatus(3), Source: peer})
	expectNaks(t, h, "three statuses, each ahead of the unicast it claims")
	if got := bodies(h.Top.UpEvents, core.USend); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("delivered %v, want [1 2 3]", got)
	}
	h.InjectUp(&core.Event{Type: core.USend, Msg: uniStatus(4), Source: peer}) // 4 is lost
	expectNaks(t, h, "the first status claiming the lost 4")
	h.Run(50 * time.Millisecond)
	h.InjectUp(&core.Event{Type: core.USend, Msg: uniStatus(4), Source: peer})
	expectNaks(t, h, "the second", [2]uint64{4, 4})
	if st := l.Stats(); st.NaksSent != 1 || st.Duplicates != 0 {
		t.Errorf("%d NAKs sent and %d duplicates, want 1 and 0", st.NaksSent, st.Duplicates)
	}
}

// On a cast stream that has been reordered, a lost tail is asked for by
// the second status that claims it, and only as far as both claim: what
// only the newer status claims waits for the status after it. A stream
// that has never been reordered asks at the first
// (TestLostRetransmissionIsAskedAgain).
func TestLostTailIsAskedAtTheSecondStatus(t *testing.T) {
	h, _, peer := askingNak(t)
	claim := func(castSent uint64) {
		h.InjectUp(&core.Event{Type: core.USend, Msg: status(castSent, 0), Source: peer})
	}
	arrive(h, peer, core.UCast, 2)
	h.Run(time.Millisecond)
	arrive(h, peer, core.UCast, 1) // a window of 1 ms
	h.Reset()

	arrive(h, peer, core.UCast, 3) // 4 and 5 are lost
	claim(5)
	expectNaks(t, h, "the first status claiming 4 and 5")
	claim(6) // and so is 6
	expectNaks(t, h, "the second", [2]uint64{4, 5})
	arrive(h, peer, core.USend, 4, 5)
	h.Reset()
	claim(6)
	expectNaks(t, h, "the second status claiming 6", [2]uint64{6, 6})
	arrive(h, peer, core.USend, 6)
	if got := bodies(h.Top.UpEvents, core.UCast); fmt.Sprint(got) != "[6]" {
		t.Fatalf("delivered %v after the second request, want [6]", got)
	}
}

// A gap is asked for once the window and a quarter have passed since
// the earliest arrival still parked behind it, and the window is the
// time an original was overtaken by that same arrival: 2 here was
// overtaken by 3 for 4 ms, though the head advanced after 2 ms. When a
// retransmission fills the head and the drain leaves a new gap, the wait
// for it runs from its own earliest parked arrival, not from the drain.
func TestGapWaitIsTimedFromTheEarliestParkedArrival(t *testing.T) {
	h, _, peer := askingNak(t)
	const ms = time.Millisecond
	arrive(h, peer, core.UCast, 3)
	expectNaks(t, h, "the first reorder asks at once", [2]uint64{1, 2})
	h.Run(2 * ms)
	arrive(h, peer, core.UCast, 1)
	h.Run(2 * ms)
	arrive(h, peer, core.UCast, 2) // a window of 4 ms: a wait of 5
	h.Reset()

	arrive(h, peer, core.UCast, 5) // 4 is lost
	h.Run(5*ms - time.Microsecond)
	expectNaks(t, h, "within the window and a quarter")
	h.Run(time.Microsecond)
	expectNaks(t, h, "the window and a quarter on", [2]uint64{4, 4})

	h.Reset()
	h.Run(ms)
	arrive(h, peer, core.UCast, 8) // 6 and 7 are lost
	h.Run(2 * ms)
	arrive(h, peer, core.USend, 4) // 4's retransmission: 8 is parked behind a new gap
	h.Run(3*ms - time.Microsecond)
	expectNaks(t, h, "within 5 ms of 8's arrival")
	h.Run(time.Microsecond)
	expectNaks(t, h, "5 ms after 8's arrival", [2]uint64{6, 7})
}

// A retransmission that fills the head says nothing about the channel,
// however late it comes: the window stays what the originals taught.
func TestRetransmissionTeachesNoWindow(t *testing.T) {
	h, _, peer := askingNak(t)
	const ms = time.Millisecond
	arrive(h, peer, core.UCast, 2)
	h.Run(2 * ms)
	arrive(h, peer, core.UCast, 1) // a window of 2 ms
	h.Reset()

	arrive(h, peer, core.UCast, 4) // 3 is lost
	h.Run(2*ms + ms/2)
	expectNaks(t, h, "the lost 3", [2]uint64{3, 3})
	h.Run(27*ms + ms/2)
	arrive(h, peer, core.USend, 3) // its retransmission, 30 ms after 4
	h.Reset()

	arrive(h, peer, core.UCast, 6)
	h.Run(2*ms + ms/2)
	expectNaks(t, h, "a gap after a late retransmission", [2]uint64{5, 5})
}

// Under steady reordering a stream's buffer may never empty, yet an
// original is timed from the earliest arrival still parked, never from
// when the buffer first filled, so the window stays within the
// reordering the channel shows. Cast k is sent at k periods; the
// even ones arrive as sent and the odd ones lag d behind them.
func TestReorderWindowDoesNotRunAway(t *testing.T) {
	h, _, peer := askingNak(t)
	const (
		period = time.Millisecond
		lag    = 3
		d      = lag * period
		n      = 400
	)
	for tick := uint64(1); tick <= n+lag; tick++ {
		if tick%2 == 0 && tick <= n {
			arrive(h, peer, core.UCast, tick)
		}
		if late := tick - lag; tick > lag && late%2 == 1 && late <= n {
			arrive(h, peer, core.UCast, late)
		}
		h.Run(period)
	}
	if got := bodies(h.Top.UpEvents, core.UCast); len(got) != n {
		t.Fatalf("delivered %d casts, want %d", len(got), n)
	}
	h.Reset()
	arrive(h, peer, core.UCast, n+2) // n+1 is lost
	h.Run(d)
	expectNaks(t, h, "a loss after 400 ms of reordering", [2]uint64{n + 1, n + 1})
}

// However late an original comes, the stream waits no longer than the
// re-NAK interval before a first request.
func TestReorderWindowIsCappedAtTheResendInterval(t *testing.T) {
	h, _, peer := askingNak(t)
	arrive(h, peer, core.UCast, 2)
	h.Run(70 * time.Millisecond)
	arrive(h, peer, core.UCast, 1) // overtaken for 70 ms
	h.Reset()

	arrive(h, peer, core.UCast, 4)
	h.Run(resend - time.Millisecond)
	expectNaks(t, h, "within the re-NAK interval")
	h.Run(time.Millisecond)
	expectNaks(t, h, "one re-NAK interval on", [2]uint64{3, 3})
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
		h.InjectUp(&core.Event{Type: core.USend, Msg: status(0, 3), Source: peer})
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
		h.InjectUp(&core.Event{Type: core.USend, Msg: status(0, 3), Source: peer})
		h.InjectUp(&core.Event{Type: core.USend, Msg: control(wireNak, 1, 3), Source: self})
		if st := l.Stats(); st.Placeholders != 1 || st.Retransmits != 2 {
			t.Errorf("after delivery: %d place holders and %d retransmissions, want 1 and still 2", st.Placeholders, st.Retransmits)
		}
	}
}

// shrinker stands in for MBRSHIP when the suspect was the last other
// survivor: on the first PROBLEM it installs the view of itself alone,
// inside the upcall, and it records every PROBLEM it is given.
type shrinker struct {
	core.Base
	problems []core.EndpointID
}

func (*shrinker) Name() string { return "SHRINK" }

func (s *shrinker) Up(ev *core.Event) {
	if ev.Type != core.UProblem {
		s.Ctx.Up(ev)
		return
	}
	s.problems = append(s.problems, ev.Source)
	if len(s.problems) == 1 {
		v := core.NewView(core.ViewID{Seq: 2, Coord: s.Ctx.Self()}, "g", []core.EndpointID{s.Ctx.Self()})
		s.Ctx.Down(&core.Event{Type: core.DView, Detail: &core.Detail{View: v}})
	}
}

// A PROBLEM upcall can shrink the view before the silence sweep that
// raised it ends. The members the new view dropped have no silence
// clock any more; the sweep must skip them rather than read them as
// silent since time 0 and report them too.
func TestSilenceSweepSkipsMembersItsProblemRemoved(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 1})
	ep := net.NewEndpoint("self")
	up := &shrinker{}
	g, err := ep.Join("g", core.StackSpec{
		func() core.Layer { return up },
		nak.NewWith(nak.WithStatusPeriod(10*time.Millisecond), nak.WithSuspectAfter(4)),
		func() core.Layer { return &layertest.Sink{} },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, q := layertest.ID("p", 2), layertest.ID("q", 3)
	g.InstallView(core.NewView(core.ViewID{Seq: 1, Coord: ep.ID()}, "g", []core.EndpointID{ep.ID(), p, q}))
	net.RunFor(time.Second)
	if len(up.problems) != 1 {
		t.Fatalf("PROBLEMs about %v, want one: the other member left the view with it", up.problems)
	}
	if st := g.Focus("NAK").(*nak.Nak).Stats(); st.ProblemsRaised != 1 {
		t.Errorf("ProblemsRaised = %d, want 1", st.ProblemsRaised)
	}
}

// One cast stream can carry casts that loop back to their sender and
// casts sent past it (HBEAT's beats go to the whole view under
// MBRSHIP's data, which goes to the others). The sender's own receive
// stream delivers exactly the looped-back ones and never asks for one
// it sent past itself: not before the stream opens, not while a copy is
// still on its way back, not at the head.
func TestCastsSentPastTheSenderAreNeverAskedFor(t *testing.T) {
	h, l, peer := quietNak(t)
	self := h.Self()
	cast := func(body string, dests []core.EndpointID) {
		h.InjectDown(&core.Event{Type: core.DCast, Msg: message.New([]byte(body)), Dests: dests})
	}
	back := func(seq uint64, body string) {
		h.InjectUp(&core.Event{Type: core.UCast, Msg: data(seq, body), Source: self})
	}
	past := []core.EndpointID{peer}
	cast("past 1", past) // before any cast loops back: no stream yet
	cast("back 2", nil)  // the stream opens after 1
	cast("past 3", past) // 2 is on its way back
	cast("back 4", nil)
	back(2, "back 2")
	cast("past 5", past) // at the head
	cast("back 6", nil)
	cast("past 7", past) // 4 and 6 are on their way back
	back(4, "back 4")
	back(6, "back 6")
	if got, want := bodies(h.UpOfType(core.UCast), core.UCast), []string{"back 2", "back 4", "back 6"}; !slices.Equal(got, want) {
		t.Errorf("own stream delivered %q, want %q", got, want)
	}
	if st := l.Stats(); st.NaksSent != 0 || st.OutOfOrder != 0 {
		t.Errorf("%d NAKs sent and %d arrivals held, want none", st.NaksSent, st.OutOfOrder)
	}
	// The stream is at 7: the peer's acknowledgement of all seven trims
	// every one of them, so a request for any is answered by a place holder.
	h.InjectUp(&core.Event{Type: core.USend, Msg: status(0, 7), Source: peer})
	h.InjectUp(&core.Event{Type: core.USend, Msg: control(wireNak, 1, 7), Source: peer})
	if st := l.Stats(); st.Retransmits != 0 || st.Placeholders != 1 {
		t.Errorf("after the peer's acknowledgement: %d retransmissions, %d place holders; want 0 and 1", st.Retransmits, st.Placeholders)
	}

	// A stream whose first cast loops back opens on its arrival, as
	// before; one sent past the sender while that copy is still on its
	// way waits for it.
	h, l, peer = quietNak(t)
	self = h.Self()
	cast("back 1", nil)
	cast("past 2", []core.EndpointID{peer})
	back(1, "back 1")
	cast("back 3", nil)
	back(3, "back 3")
	if got, want := bodies(h.UpOfType(core.UCast), core.UCast), []string{"back 1", "back 3"}; !slices.Equal(got, want) {
		t.Errorf("own stream delivered %q, want %q", got, want)
	}
	if st := l.Stats(); st.NaksSent != 0 || st.OutOfOrder != 0 {
		t.Errorf("%d NAKs sent and %d arrivals held, want none", st.NaksSent, st.OutOfOrder)
	}
}

// A member that joins was sent the casts made from its joining on. The
// stream's history before that never reached it, and its membership
// layer would drop it as another view's, so its request from 1 draws one
// place holder up to the last cast before it joined and no
// retransmission of it. A member of the first view is retransmitted all
// it asks for.
func TestJoinerIsPlaceHeldForWhatPrecededIt(t *testing.T) {
	h, l, peer := quietNak(t)
	for _, b := range []string{"one", "two", "three"} {
		h.InjectDown(core.NewCast(message.New([]byte(b))))
	}
	joiner := layertest.ID("joiner", 3)
	h.InstallView(h.Self(), peer, joiner)
	h.InjectDown(core.NewCast(message.New([]byte("four"))))

	answer := func(from core.EndpointID) []string {
		h.Reset()
		h.InjectUp(&core.Event{Type: core.USend, Msg: control(wireNak, 1, 4), Source: from})
		var got []string
		for _, ev := range h.DownOfType(core.DSend) {
			msg := ev.Msg.Clone()
			switch kind := msg.PopUint8(); kind {
			case wirePlaceholder:
				msg.PopUint8() // stream
				lo := msg.PopUint()
				got = append(got, fmt.Sprintf("place holder %d-%d", lo, msg.PopUint()))
			case wireData:
				got = append(got, fmt.Sprintf("%d %s", msg.PopUint(), msg.Body()))
			default:
				t.Fatalf("answer of kind %d", kind)
			}
		}
		return got
	}
	if got, want := answer(joiner), []string{"place holder 1-3", "4 four"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("the joiner's request from 1 drew %v, want %v", got, want)
	}
	if st := l.Stats(); st.Placeholders != 1 || st.Retransmits != 1 {
		t.Errorf("stats %+v, want one place holder and one retransmission", st)
	}
	if got, want := answer(peer), []string{"1 one", "2 two", "3 three", "4 four"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("the first-view member's request from 1 drew %v, want %v", got, want)
	}
}
