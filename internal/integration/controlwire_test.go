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
// [header length][COM's source and kind][the layer's header], each
// member's identifier as its birth alone (tapTransport): a change
// to how a layer builds a control message that moves, resizes or
// reorders a single field fails here, per message kind, where the
// benchmark's wire_bytes_per_app_byte would only see a ratio move.

// tapTransport is a core.Transport with a manual clock, and a
// core.Directory over the four members, as the fabric that assigned
// their births would be: every identifier of the view travels as its
// birth alone.
type tapTransport struct {
	cwNames
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

// cwNames names the four members by their births (core.Directory).
type cwNames struct{}

func (cwNames) Named(birth uint64) (core.EndpointID, bool) {
	for _, id := range []core.EndpointID{cwA, cwB, cwC, cwD} {
		if id.Birth == birth {
			return id, true
		}
	}
	return core.EndpointID{}, false
}

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
	wire.PushEndpointID(m, src, cwNames{})
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
	tr, ep, g := cwJoin(t, cwB, nak.New)
	g.InstallView(cwView())

	// Fixed counters: our cast stream at 6 (the first two trimmed once
	// every member acknowledged them), two unicasts to a, casts delivered
	// from d (2), a (1) and ourselves (3, looped back), one unicast from
	// a.
	nakData := func(kind uint8, seq uint64) func(*message.Message) {
		return func(m *message.Message) { m.PushUint(seq); m.PushUint8(kind) }
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
	// Each other member's status: 2 of our casts delivered, and as many
	// casts and unicasts sent to us as we have delivered.
	for _, peer := range []struct {
		id                core.EndpointID
		castSent, uniSent uint64
	}{{cwA, 1, 1}, {cwC, 0, 0}, {cwD, 2, 0}} {
		cwArrive(ep, peer.id, false, nil, func(m *message.Message) {
			m.PushUint(0) // our unicasts it has delivered
			m.PushUint(peer.uniSent)
			m.PushUint(peer.castSent)
			m.PushUint(2)  // our casts it has delivered
			m.PushUint8(4) // kindStatus
		})
	}
	tr.take()

	// A gap: c's cast 3 arrives first, so 1-2 are requested.
	cwArrive(ep, cwC, true, []byte("x"), nakData(1, 3))
	// 6 header bytes (9 while COM's source carried its site, 33 while
	// every integer took four or eight).
	const rangeRequest = "06040203010102"
	cwExpect(t, "range request", tr.take(), to(rangeRequest, cwC))

	// c asks for our casts 1-4: 1-2 are gone (one place holder), 3 and 4
	// are retransmitted as first sent, but for the kind byte: 7, a cast
	// resent, where they were first sent as 1.
	cwArrive(ep, cwC, false, nil, func(m *message.Message) {
		m.PushUint(4)
		m.PushUint(1)
		m.PushUint8(1) // streamCast
		m.PushUint8(3) // kindNak
	})
	// 6, 4 and 4 header bytes (9, 7 and 7 with the source's site; 33,
	// 24 and 24 before varints).
	cwExpect(t, "place holder and retransmissions", tr.take(),
		to("06040205010102", cwC),
		to("040402070332", cwC),
		to("040402070433", cwC))

	// The status round, 50 ms after the join; the request to c, still
	// unanswered, is repeated at 40 ms. Each member is sent how much of
	// its own cast stream we have delivered (a 1, c none, d 2), our cast
	// count, and our unicast positions with it; only a has unicast streams
	// with us. A status is 7 header bytes whatever the group's size (10
	// with the sender's site, 33 for four members while it carried every
	// source's identifier and count).
	const (
		status     = "07040204"
		noUnicasts = "0000"
	)
	tr.advance(50 * time.Millisecond)
	cwExpect(t, "status", tr.take(), to(rangeRequest, cwC),
		to(status+"01"+"06"+"0201", cwA), to(status+"00"+"06"+noUnicasts, cwC), to(status+"02"+"06"+noUnicasts, cwD))
}

func TestControlWireImagesTotal(t *testing.T) {
	tr, ep, g := cwJoin(t, cwB, total.New)
	g.InstallView(cwView())

	// Not the holder (a is): a cast asks a for the token.
	g.Cast(message.New([]byte("m")))
	// 4 header bytes: COM's source and the requester are births alone
	// (10 with their sites, 30 before varints).
	cwExpect(t, "token request", tr.take(),
		to("0404020304", cwA))

	// The token arrives at order 7 with c, d and a waiting: our cast is
	// stamped 8 and the token moves on to c with d and a still queued.
	cwArrive(ep, cwA, false, nil, func(m *message.Message) {
		wire.PushIDList(m, []core.EndpointID{cwC, cwD, cwA}, cwNames{})
		m.PushUint(7)
		wire.PushViewID(m, cwView().ID, cwNames{})
		m.PushUint8(2) // kToken
	})
	// The cast's headers are 4 bytes (7 with the source's site, 24
	// before varints), the token 9 under the view tag it was granted in
	// (21 with every site, 57 before varints).
	cwExpect(t, "stamped cast and token", tr.take(),
		to("04040101086d", cwA, cwB, cwC, cwD),
		to("09040202050208020802", cwC))

	// A token granted in another view is dropped: we are no longer the
	// holder, and one from view 4 of a does not make us one again.
	cwArrive(ep, cwA, false, nil, func(m *message.Message) {
		wire.PushIDList(m, nil, cwNames{})
		m.PushUint(9)
		wire.PushViewID(m, core.ViewID{Seq: 4, Coord: cwA}, cwNames{})
		m.PushUint8(2) // kToken
	})
	g.Cast(message.New([]byte("n")))
	cwExpect(t, "request after a stale token", tr.take(),
		to("0404020304", cwC))

	// No longer the holder: d's request is forwarded toward c.
	cwArrive(ep, cwD, false, nil, func(m *message.Message) {
		wire.PushEndpointID(m, cwD, cwNames{})
		m.PushUint8(3) // kReq
	})
	// 4 header bytes (12 with the sites, 32 before varints).
	cwExpect(t, "forwarded request", tr.take(),
		to("0404020308", cwC))
}

func TestControlWireImagesMbrship(t *testing.T) {
	tr, ep, g := cwJoin(t, cwB, mbrship.New)
	tr.advance(0) // the initial singleton view, 1@bb
	tr.take()

	// a announces the four-member view, flushed from our singleton.
	v := cwView()
	cwArrive(ep, cwA, false, nil, func(m *message.Message) {
		wire.PushEndpointID(m, core.EndpointID{}, cwNames{}) // sealer of the second predecessor
		wire.PushEndpointID(m, core.EndpointID{}, cwNames{})
		m.PushUint(0) // second predecessor: none
		wire.PushEndpointID(m, cwB, cwNames{})
		m.PushUint(1) // first predecessor: our singleton
		wire.PushView(m, v, cwNames{})
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
			m.PushUint(seq)
			wire.PushEndpointID(m, v.ID.Coord, cwNames{})
			m.PushUint(v.ID.Seq)
			m.PushUint8(1) // kData
		}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		cwArrive(ep, cwD, true, []byte("x"), data(seq))
	}
	cwArrive(ep, cwA, true, []byte("x"), data(1))
	tr.take()

	tr.advance(100 * time.Millisecond)
	// The counts in the view's member order (a 1, bb 2, ccc 0, dddd 3)
	// under the view tag: 10 header bytes for four members (15 with the
	// sender's and the coordinator's sites, 34 while the member list went
	// along, 135 before varints).
	cwExpect(t, "gossip", tr.take(),
		to("0a04020805020401020003", cwA, cwC, cwD))
}
