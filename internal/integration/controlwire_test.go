package integration

import (
	"encoding/hex"
	"sort"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/layers/total"
	"horus/internal/message"
	"horus/internal/wire"
)

// The control messages NAK, TOTAL and MBRSHIP originate, byte for byte.
// Each layer runs directly over COM on a transport that records what it
// is handed and fires timers only when the test moves its clock, in one
// fixed four-member view with fixed counters, so a captured packet is
// [header length][COM's source and kind][the layer's header]: a change
// to how a layer builds a control message that moves, resizes or
// reorders a single field fails here, per message kind, where the
// benchmark's wire_bytes_per_app_byte would only see a ratio move.

// tapTransport is a core.Transport with a manual clock.
type tapTransport struct {
	now    time.Duration
	timers []*tapTimer
	sent   []tapSend
}

type tapTimer struct {
	at   time.Duration
	fn   func()
	dead bool
}

type tapSend struct {
	dests []core.EndpointID
	wire  string // hex
}

func (f *tapTransport) Send(_ core.EndpointID, _ core.GroupAddr, dests []core.EndpointID, w []byte) {
	f.sent = append(f.sent, tapSend{append([]core.EndpointID(nil), dests...), hex.EncodeToString(w)})
}

func (f *tapTransport) SetTimer(d time.Duration, fn func()) func() {
	tm := &tapTimer{at: f.now + d, fn: fn}
	f.timers = append(f.timers, tm)
	return func() { tm.dead = true }
}

func (f *tapTransport) Now() time.Duration { return f.now }

// advance moves the clock by d, firing the timers that fall due in
// time order (arming order among equals).
func (f *tapTransport) advance(d time.Duration) {
	end := f.now + d
	for {
		sort.SliceStable(f.timers, func(i, j int) bool { return f.timers[i].at < f.timers[j].at })
		if len(f.timers) == 0 || f.timers[0].at > end {
			break
		}
		tm := f.timers[0]
		f.timers = f.timers[1:]
		if !tm.dead {
			f.now = tm.at
			tm.fn()
		}
	}
	f.now = end
}

// take returns what was sent since the last call.
func (f *tapTransport) take() []tapSend {
	s := f.sent
	f.sent = nil
	return s
}

var (
	cwA = core.EndpointID{Site: "a", Birth: 1}
	cwB = core.EndpointID{Site: "bb", Birth: 2}
	cwC = core.EndpointID{Site: "ccc", Birth: 3}
	cwD = core.EndpointID{Site: "dddd", Birth: 4}
)

func cwView() *core.View {
	return core.NewView(core.ViewID{Seq: 5, Coord: cwA}, "g", []core.EndpointID{cwA, cwB, cwC, cwD})
}

// cwJoin boots one layer over COM as endpoint self.
func cwJoin(t *testing.T, self core.EndpointID, layer core.Factory) (*tapTransport, *core.Endpoint, *core.Group) {
	t.Helper()
	tr := &tapTransport{}
	ep := core.NewEndpoint(self, tr)
	g, err := ep.Join("g", core.StackSpec{layer, com.New}, func(*core.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	return tr, ep, g
}

// cwArrive delivers a packet from src: hdr pushes the layer's header,
// COM's is added here.
func cwArrive(ep *core.Endpoint, src core.EndpointID, cast bool, body []byte, hdr func(m *message.Message)) {
	m := message.New(body)
	hdr(m)
	if cast {
		m.PushUint8(1) // COM kindCast
	} else {
		m.PushUint8(2) // COM kindSend
	}
	wire.PushEndpointID(m, src)
	ep.Deliver("g", m.Marshal())
}

func cwExpect(t *testing.T, what string, got []tapSend, want ...tapSend) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d packets sent, want %d: %+v", what, len(got), len(want), got)
	}
	for i := range want {
		if len(got[i].dests) != len(want[i].dests) {
			t.Fatalf("%s: packet %d to %v, want %v", what, i, got[i].dests, want[i].dests)
		}
		for j := range want[i].dests {
			if got[i].dests[j] != want[i].dests[j] {
				t.Fatalf("%s: packet %d to %v, want %v", what, i, got[i].dests, want[i].dests)
			}
		}
		if got[i].wire != want[i].wire {
			t.Errorf("%s: packet %d to %v\n got %s\nwant %s", what, i, got[i].dests, got[i].wire, want[i].wire)
		}
	}
}

func to(wireHex string, dests ...core.EndpointID) tapSend { return tapSend{dests, wireHex} }

func TestControlWireImagesNak(t *testing.T) {
	tr, ep, g := cwJoin(t, cwB, nak.NewWith(nak.WithRetain(4)))
	g.InstallView(cwView())

	// Fixed counters: our cast stream at 6 (the first two trimmed by the
	// retention limit), two unicasts to a, casts delivered from d (2),
	// a (1) and ourselves (3, looped back), one unicast from a.
	nakData := func(kind uint8, seq uint64) func(*message.Message) {
		return func(m *message.Message) { m.PushUint64(seq); m.PushUint8(kind) }
	}
	for i := 0; i < 6; i++ {
		g.Cast(message.New([]byte{byte('0' + i)}))
	}
	g.Send([]core.EndpointID{cwA}, message.New([]byte("u1")))
	g.Send([]core.EndpointID{cwA}, message.New([]byte("u2")))
	cwArrive(ep, cwD, true, []byte("x"), nakData(1, 1))
	cwArrive(ep, cwD, true, []byte("x"), nakData(1, 2))
	cwArrive(ep, cwA, true, []byte("x"), nakData(1, 1))
	for seq := uint64(1); seq <= 3; seq++ {
		cwArrive(ep, cwB, true, []byte("x"), nakData(1, seq))
	}
	cwArrive(ep, cwA, false, []byte("x"), nakData(2, 1))
	tr.take()

	// A gap: c's cast 3 arrives first, so 1-2 are requested.
	cwArrive(ep, cwC, true, []byte("x"), nakData(1, 3))
	const rangeRequest = "00000021000000000000000200000002626202030100000000000000010000000000000002"
	cwExpect(t, "range request", tr.take(), to(rangeRequest, cwC))

	// c asks for our casts 1-4: 1-2 are gone (one place holder), 3 and 4
	// are retransmitted as first sent.
	cwArrive(ep, cwC, false, nil, func(m *message.Message) {
		m.PushUint64(4)
		m.PushUint64(1)
		m.PushUint8(1) // streamCast
		m.PushUint8(3) // kindNak
	})
	cwExpect(t, "place holder and retransmissions", tr.take(),
		to("00000021000000000000000200000002626202050100000000000000010000000000000002", cwC),
		to("0000001800000000000000020000000262620201000000000000000332", cwC),
		to("0000001800000000000000020000000262620201000000000000000433", cwC))

	// The status round, 50 ms after the join; the request to c, still
	// unanswered, is repeated at 40 ms. Only a has unicast streams with us.
	const (
		status     = "0000008a0000000000000002000000026262020400000004000000000000000100000001610000000000000002000000026262000000000000000300000003636363000000000000000400000004646464640000000400000000000000010000000000000003000000000000000000000000000000020000000000000006"
		noUnicasts = "00000000000000000000000000000000"
	)
	tr.advance(50 * time.Millisecond)
	cwExpect(t, "status", tr.take(), to(rangeRequest, cwC),
		to(status+"00000000000000020000000000000001", cwA), to(status+noUnicasts, cwC), to(status+noUnicasts, cwD))
}

func TestControlWireImagesTotal(t *testing.T) {
	tr, ep, g := cwJoin(t, cwB, total.New)
	g.InstallView(cwView())

	// Not the holder (a is): a cast asks a for the token.
	g.Cast(message.New([]byte("m")))
	cwExpect(t, "token request", tr.take(),
		to("0000001e000000000000000200000002626202030000000000000002000000026262", cwA))

	// The token arrives at order 7 with c, d and a waiting: our cast is
	// stamped 8 and the token moves on to c with d and a still queued.
	cwArrive(ep, cwA, false, nil, func(m *message.Message) {
		wire.PushIDList(m, []core.EndpointID{cwC, cwD, cwA})
		m.PushUint64(7)
		m.PushUint8(2) // kToken
	})
	cwExpect(t, "stamped cast and token", tr.take(),
		to("000000180000000000000002000000026262010100000000000000086d", cwA, cwB, cwC, cwD),
		to("00000039000000000000000200000002626202020000000000000008000000020000000000000004000000046464646400000000000000010000000161", cwC))

	// No longer the holder: d's request is forwarded toward c.
	cwArrive(ep, cwD, false, nil, func(m *message.Message) {
		wire.PushEndpointID(m, cwD)
		m.PushUint8(3) // kReq
	})
	cwExpect(t, "forwarded request", tr.take(),
		to("000000200000000000000002000000026262020300000000000000040000000464646464", cwC))
}

func TestControlWireImagesMbrship(t *testing.T) {
	tr, ep, g := cwJoin(t, cwB, mbrship.New)
	tr.advance(0) // the initial singleton view, 1@bb
	tr.take()

	// a announces the four-member view, flushed from our singleton.
	v := cwView()
	cwArrive(ep, cwA, false, nil, func(m *message.Message) {
		wire.PushEndpointID(m, core.EndpointID{}) // sealer of the second predecessor
		wire.PushEndpointID(m, core.EndpointID{})
		m.PushUint64(0) // second predecessor: none
		wire.PushEndpointID(m, cwB)
		m.PushUint64(1) // first predecessor: our singleton
		wire.PushView(m, v)
		m.PushUint8(7) // kView
	})
	if got := g.View(); got == nil || got.ID != v.ID {
		t.Fatalf("view after the announcement: %v, want %v", got, v)
	}

	// Fixed counters: two casts of our own, three from d, one from a.
	g.Cast(message.New([]byte("m1")))
	g.Cast(message.New([]byte("m2")))
	data := func(seq uint64) func(*message.Message) {
		return func(m *message.Message) {
			m.PushUint64(seq)
			wire.PushEndpointID(m, v.ID.Coord)
			m.PushUint64(v.ID.Seq)
			m.PushUint8(1) // kData
		}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		cwArrive(ep, cwD, true, []byte("x"), data(seq))
	}
	cwArrive(ep, cwA, true, []byte("x"), data(1))
	tr.take()

	tr.advance(100 * time.Millisecond)
	cwExpect(t, "gossip", tr.take(),
		to("00000087000000000000000200000002626202080000000000000005000000000000000100000001610000000400000000000000010000000161000000000000000200000002626200000000000000030000000363636300000000000000040000000464646464000000040000000000000001000000000000000200000000000000000000000000000003", cwA, cwC, cwD))
}
