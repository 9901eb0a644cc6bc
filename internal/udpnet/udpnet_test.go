package udpnet_test

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/frag"
	"horus/internal/layers/hbeat"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/sched"
	"horus/internal/udpnet"
	"horus/internal/wire"
)

func stack() core.StackSpec {
	return core.StackSpec{
		mbrship.NewWith(
			mbrship.WithGossipPeriod(20*time.Millisecond),
			mbrship.WithFlushTimeout(300*time.Millisecond),
		),
		frag.NewWithSize(1024),
		nak.NewWith(
			nak.WithStatusPeriod(10*time.Millisecond),
			nak.WithSuspectAfter(10),
		),
		com.New,
	}
}

type member struct {
	mu    sync.Mutex
	casts []string
	view  *core.View
}

func (m *member) handler() core.Handler {
	return func(ev *core.Event) {
		m.mu.Lock()
		defer m.mu.Unlock()
		switch ev.Type {
		case core.UCast:
			m.casts = append(m.casts, string(ev.Msg.Body()))
		case core.UView:
			m.view = ev.View
		}
	}
}

// join creates tr's endpoint and joins it to group. The endpoint is
// destroyed when the test ends: closing the socket does not stop a
// stack's wall-clock timers, and what they allocate would be counted by
// the allocation pins further down.
func join(t *testing.T, tr *udpnet.Transport, group core.GroupAddr, spec core.StackSpec, h core.Handler) *core.Group {
	t.Helper()
	ep := tr.NewEndpoint()
	t.Cleanup(ep.Destroy)
	g, err := ep.Join(group, spec, h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func (m *member) viewSize() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.view == nil {
		return 0
	}
	return m.view.Size()
}

func (m *member) castCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.casts)
}

// TestRealUDPGroup runs the full membership stack over genuine UDP
// loopback sockets: the same layers, real packets, the kernel as P1.
func TestRealUDPGroup(t *testing.T) {
	ids := []core.EndpointID{
		{Site: "a", Birth: 1},
		{Site: "b", Birth: 2},
		{Site: "c", Birth: 3},
	}
	transports := make([]*udpnet.Transport, len(ids))
	for i, id := range ids {
		tr, err := udpnet.Listen("127.0.0.1:0", id)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		transports[i] = tr
	}
	// Full static peer mesh, including self (loopback self-delivery).
	for _, ti := range transports {
		for j, tj := range transports {
			ti.AddPeer(ids[j], tj.Addr())
		}
	}

	members := make([]*member, len(ids))
	groups := make([]*core.Group, len(ids))
	for i, tr := range transports {
		members[i] = &member{}
		groups[i] = join(t, tr, "udp-grp", stack(), members[i].handler())
	}

	// Merge everyone into a's view, retrying until formed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		formed := true
		for i := 1; i < len(groups); i++ {
			if members[i].viewSize() < len(ids) {
				formed = false
				groups[i].Merge(ids[0])
			}
		}
		if formed && members[0].viewSize() == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("UDP group formation timed out: sizes %d/%d/%d",
				members[0].viewSize(), members[1].viewSize(), members[2].viewSize())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Multicast over the wire; everyone (sender included) delivers.
	for i, g := range groups {
		g.Cast(message.New([]byte(fmt.Sprintf("udp-%d", i))))
	}
	for {
		done := true
		for _, m := range members {
			if m.castCount() < len(ids) {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("UDP deliveries timed out: %d/%d/%d",
				members[0].castCount(), members[1].castCount(), members[2].castCount())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// FIFO per sender still holds over the real network.
	for i, m := range members {
		m.mu.Lock()
		seen := map[string]bool{}
		for _, p := range m.casts {
			if seen[p] {
				t.Errorf("member %d: duplicate %q", i, p)
			}
			seen[p] = true
		}
		m.mu.Unlock()
	}
}

// TestUDPLargeMessage pushes a message bigger than a datagram through
// FRAG over UDP.
func TestUDPLargeMessage(t *testing.T) {
	ids := []core.EndpointID{{Site: "a", Birth: 1}, {Site: "b", Birth: 2}}
	ta, err := udpnet.Listen("127.0.0.1:0", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := udpnet.Listen("127.0.0.1:0", ids[1])
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	for _, tr := range []*udpnet.Transport{ta, tb} {
		tr.AddPeer(ids[0], ta.Addr())
		tr.AddPeer(ids[1], tb.Addr())
	}
	ma, mb := &member{}, &member{}
	ga := join(t, ta, "big", stack(), ma.handler())
	gb := join(t, tb, "big", stack(), mb.handler())
	deadline := time.Now().Add(10 * time.Second)
	for mb.viewSize() < 2 {
		gb.Merge(ids[0])
		if time.Now().After(deadline) {
			t.Fatal("formation timeout")
		}
		time.Sleep(50 * time.Millisecond)
	}

	big := make([]byte, 200_000) // ~200 fragments
	for i := range big {
		big[i] = byte(i * 131)
	}
	ga.Cast(message.New(big))
	for mb.castCount() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("large message timeout")
		}
		time.Sleep(20 * time.Millisecond)
	}
	mb.mu.Lock()
	got := mb.casts[0]
	mb.mu.Unlock()
	if len(got) != len(big) || got != string(big) {
		t.Fatalf("large message corrupted: len %d vs %d", len(got), len(big))
	}
}

// hbeatStack puts HBEAT below MBRSHIP with NAK's own silence suspicion
// disabled, so the heartbeat layer is the only failure detector.
func hbeatStack() core.StackSpec {
	return core.StackSpec{
		mbrship.NewWith(
			mbrship.WithGossipPeriod(20*time.Millisecond),
			mbrship.WithFlushTimeout(300*time.Millisecond),
		),
		hbeat.NewWith(
			hbeat.WithPeriod(25*time.Millisecond),
			hbeat.WithMinTimeout(100*time.Millisecond),
			hbeat.WithMaxTimeout(400*time.Millisecond),
		),
		nak.NewWith(
			nak.WithStatusPeriod(10*time.Millisecond),
			nak.WithSuspectAfter(0),
		),
		com.New,
	}
}

// TestHeartbeatDetectsCrashOverUDP is the real-socket twin of the
// netsim detection-bound test: HBEAT alone (no manual PROBLEM
// injection, NAK suspicion off) must notice a crashed peer over
// genuine UDP and drive MBRSHIP to flush it out, within a wall-clock
// bound asserted via sched.EventCounter.AwaitTimeout.
func TestHeartbeatDetectsCrashOverUDP(t *testing.T) {
	ids := []core.EndpointID{
		{Site: "a", Birth: 1},
		{Site: "b", Birth: 2},
		{Site: "c", Birth: 3},
	}
	transports := make([]*udpnet.Transport, len(ids))
	for i, id := range ids {
		tr, err := udpnet.Listen("127.0.0.1:0", id)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		transports[i] = tr
	}
	for _, ti := range transports {
		for j, tj := range transports {
			ti.AddPeer(ids[j], tj.Addr())
		}
	}

	// Survivors advance this counter whenever they install the
	// post-crash view {a, b}.
	shrunk := sched.NewEventCounter()
	members := make([]*member, len(ids))
	groups := make([]*core.Group, len(ids))
	for i, tr := range transports {
		i := i
		members[i] = &member{}
		inner := members[i].handler()
		handler := func(ev *core.Event) {
			inner(ev)
			if i < 2 && ev.Type == core.UView &&
				ev.View.Size() == 2 && !ev.View.Contains(ids[2]) {
				shrunk.Advance()
			}
		}
		groups[i] = join(t, tr, "hb-grp", hbeatStack(), handler)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		formed := true
		for i := 1; i < len(groups); i++ {
			if members[i].viewSize() < len(ids) {
				formed = false
				groups[i].Merge(ids[0])
			}
		}
		if formed && members[0].viewSize() == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("formation timed out: sizes %d/%d/%d",
				members[0].viewSize(), members[1].viewSize(), members[2].viewSize())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Crash c: close its socket. Nothing announces the failure; only
	// heartbeat silence can reveal it.
	transports[2].Close()

	// maxTimeout (400ms) + sweep period + flush rounds, with generous
	// slack for loaded CI machines.
	const bound = 8 * time.Second
	if !shrunk.AwaitTimeout(2, bound) {
		t.Fatalf("survivors did not install {a,b} within %v: sizes %d/%d",
			bound, members[0].viewSize(), members[1].viewSize())
	}
}

// TestMalformedAndTruncatedCounted feeds the reader hostile datagrams:
// garbage headers are counted as malformed, and nothing reaches the
// endpoint or crashes the reader.
func TestMalformedAndTruncatedCounted(t *testing.T) {
	id := core.EndpointID{Site: "x", Birth: 1}
	tr, err := udpnet.Listen("127.0.0.1:0", id)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.NewEndpoint()

	src, err := net.DialUDP("udp", nil, tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, pkt := range [][]byte{
		{0xFF},             // shorter than the length prefix
		{0xFF, 0xFF},       // header promises 65535 group bytes
		{0x00, 0x09, 'g'},  // promises 9, carries 1
		{0x10, 0x00, 0, 0}, // group length beyond the sanity cap
	} {
		if _, err := src.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().Malformed < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("malformed datagrams counted = %d, want 4", tr.Stats().Malformed)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSendErrorsSurfaced: the fire-and-forget Send interface counts
// failures instead of swallowing them.
func TestSendErrorsSurfaced(t *testing.T) {
	id := core.EndpointID{Site: "x", Birth: 1}
	tr, err := udpnet.Listen("127.0.0.1:0", id)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Oversized payload: dropped and counted.
	big := make([]byte, 70*1024)
	tr.Send(id, "grp", nil, big)
	if got := tr.Stats().Oversized; got != 1 {
		t.Fatalf("Oversized = %d, want 1", got)
	}
	// A group address too long for the header: dropped and counted.
	tr.Send(id, core.GroupAddr(strings.Repeat("g", 300)), nil, []byte("hi"))
	if got := tr.Stats().Oversized; got != 2 {
		t.Fatalf("Oversized = %d after a long group address, want 2", got)
	}

	// Socket-level write error: port 0 is unroutable.
	bad := core.EndpointID{Site: "bad", Birth: 9}
	tr.AddPeer(bad, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
	tr.Send(id, "grp", []core.EndpointID{bad}, []byte("hi"))
	if got := tr.Stats().SendErrors; got != 1 {
		t.Fatalf("SendErrors = %d, want 1", got)
	}

	// A closed transport sends nothing and so fails at nothing.
	tr.Close()
	tr.Send(id, "grp", []core.EndpointID{bad}, []byte("hi"))
	if got := tr.Stats().SendErrors; got != 1 {
		t.Errorf("SendErrors = %d after a send on a closed transport, want 1", got)
	}
}

// TestSendAllocatesNothing pins the send side of the socket path: the
// datagram is framed into scratch the transport keeps and written to a
// destination list it reuses, so in steady state a Send — to one peer
// or to all — allocates nothing.
func TestSendAllocatesNothing(t *testing.T) {
	ids := []core.EndpointID{{Site: "a", Birth: 1}, {Site: "b", Birth: 2}, {Site: "c", Birth: 3}}
	trs := make([]*udpnet.Transport, len(ids))
	for i, id := range ids {
		tr, err := udpnet.Listen("127.0.0.1:0", id)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[i] = tr
	}
	// b and c have no endpoint, hence no reader: their sockets fill up
	// and the kernel drops the rest, which costs this process nothing.
	trs[0].AddPeer(ids[1], trs[1].Addr())
	trs[0].AddPeer(ids[2], trs[2].Addr())

	wire := message.New(make([]byte, 64)).Marshal()
	one := []core.EndpointID{ids[1]}
	trs[0].Send(ids[0], "grp", nil, wire) // grows the scratch
	if n := testing.AllocsPerRun(200, func() { trs[0].Send(ids[0], "grp", one, wire) }); n != 0 {
		t.Errorf("Send to one destination: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { trs[0].Send(ids[0], "grp", nil, wire) }); n != 0 {
		t.Errorf("broadcast Send: %v allocations, want 0", n)
	}
	if st := trs[0].Stats(); st.SendErrors != 0 || st.Oversized != 0 {
		t.Errorf("sends failed: %+v", st)
	}
}

// TestFragmentAndRetransmitAllocs pins what fragments and a
// retransmission cost on the socket path. A cast's fragments are cut
// into one buffer with header room in front of each
// (core.NewFragments), so each is rendered where it lies
// (message.Wire) and the transport frames it into its scratch with no
// allocation of its own. A retransmission NAK copies from its ring is
// not in place: it is rendered into one fresh buffer, which on netsim
// is the one the fabric keeps and on a socket one allocation per
// transmission. The sender runs FRAG:NAK:COM in a view with a peer that
// has no reader, so the kernel drops what it is sent and only the
// sender's side is counted; the retransmission is asked for by a NAK
// delivered to the endpoint. A cast of three fragments costs four
// allocations (the application's Message, its downcall record, the cut
// buffer and the fragments' record block), and a NAK with its
// retransmission three, one of them the image. Before fragments were
// cut with room they cost ten and three, and with the endpoint's reused
// scratch buffer that netsim copied from, seven and two.
func TestFragmentAndRetransmitAllocs(t *testing.T) {
	self, peer := core.EndpointID{Site: "a", Birth: 1}, core.EndpointID{Site: "b", Birth: 2}
	tr, err := udpnet.Listen("127.0.0.1:0", self)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sink, err := udpnet.Listen("127.0.0.1:0", peer)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	tr.AddPeer(peer, sink.Addr())
	spec := core.StackSpec{frag.NewWithSize(1024), nak.NewWith(nak.WithStatusPeriod(time.Hour)), com.New}
	g := join(t, tr, "grp", spec, nil)
	g.InstallView(core.NewView(core.ViewID{Seq: 1, Coord: self}, "grp", []core.EndpointID{self, peer}))

	// Three fragments a cast. NAK's ring doubles until it holds its
	// 1 024 messages: 200 casts take it there, and the 101 measured
	// end before it is full.
	body := make([]byte, 2500)
	for i := 0; i < 200; i++ {
		g.Cast(message.New(body))
	}
	sent := func() int { return g.Focus("COM").(*com.Com).Stats().Sent }
	before := sent()
	if n := testing.AllocsPerRun(100, func() { g.Cast(message.New(body)) }); n != 4 {
		t.Errorf("a cast of three fragments: %v allocations, want 4", n)
	}
	if got := sent() - before; got != 3*101 {
		t.Fatalf("%d datagrams for 101 casts, want three a cast", got)
	}

	// NAK's request for its first cast fragment, as a peer's NAK
	// builds it: {stream, from, to} under its kind, COM's kind and
	// source in front (the control-wire goldens pin these bytes).
	const nakKind, castStream, comSend = 3, 1, 2
	requests := make([][]byte, 101)
	for i := range requests {
		m := message.New(nil)
		m.PushUint(1)
		m.PushUint(1)
		m.PushUint8(castStream)
		m.PushUint8(nakKind)
		m.PushUint8(comSend)
		wire.PushEndpointID(m, peer)
		requests[i] = m.Marshal()
	}
	ep, i := g.Endpoint(), 0
	before = sent()
	if n := testing.AllocsPerRun(100, func() { ep.Deliver("grp", requests[i]); i++ }); n != 3 {
		t.Errorf("a NAK and its retransmission: %v allocations, want 3", n)
	}
	if got := sent() - before; got != 101 {
		t.Fatalf("%d datagrams for 101 NAKs, want one retransmission each", got)
	}
}

// passLayer is a stack of nothing: packets reach the handler as they
// left the endpoint's receive path.
type passLayer struct{ core.Base }

func (passLayer) Name() string { return "PASS" }

// TestReceiveAllocsPerDatagram pins the receive side from the socket to
// the handler, reader goroutine included: a 100-byte datagram costs the
// endpoint's packet record and its share of a payload slab, one per
// ~160 datagrams — nothing for the sender's address, nothing for a
// buffer of its own.
func TestReceiveAllocsPerDatagram(t *testing.T) {
	const (
		datagrams = 4000
		window    = 64 // in flight at most: the socket buffer must not overflow
	)
	tr, err := udpnet.Listen("127.0.0.1:0", core.EndpointID{Site: "rx", Birth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var received atomic.Int64
	body := make([]byte, 96)
	_, err = tr.NewEndpoint().Join("grp", core.StackSpec{func() core.Layer { return &passLayer{} }},
		func(ev *core.Event) {
			if ev.Type == core.UPacket && len(ev.Msg.Body()) == len(body) {
				received.Add(1)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.DialUDP("udp", nil, tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// [group length][group][message wire]: 2 + 3 + 100 bytes.
	frame := append([]byte{0, 3, 'g', 'r', 'p'}, message.New(body).Marshal()...)

	// sendUpTo writes datagrams until total have been sent, keeping at
	// most window ahead of the handler, and returns when all arrived.
	sent := int64(0)
	sendUpTo := func(total int64) {
		deadline := time.Now().Add(10 * time.Second)
		for received.Load() < total {
			if sent < total && sent-received.Load() < window {
				if _, err := src.Write(frame); err != nil {
					t.Fatal(err)
				}
				sent++
				continue
			}
			if time.Now().After(deadline) {
				t.Fatalf("received %d of %d datagrams sent", received.Load(), sent)
			}
			runtime.Gosched()
		}
	}
	sendUpTo(window) // first slab, executor queue, socket buffers

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sendUpTo(window + datagrams)
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations for %d datagrams", mallocs, datagrams)
	// Across a socket and two goroutines the race detector's runtime
	// counts some hundred allocations of its own per thousand datagrams
	// that no profile attributes to the program; the bound is for the
	// build the benchmark measures (CI runs the pins on both).
	if limit := uint64(datagrams + datagrams/50); mallocs > limit && !raceEnabled {
		t.Errorf("%d allocations for %d datagrams of 100 bytes, want at most %d", mallocs, datagrams, limit)
	}
}
