//horus:wallclock — real-network transport: kernel sockets, reader
// goroutines, and retransmit timers necessarily run on the wall clock.

// Package udpnet is a real-network transport: endpoints exchange UDP
// datagrams (loopback or LAN), demonstrating that the protocol stacks
// are transport-agnostic — the same layers that run over the simulator
// run over genuine sockets, with the kernel as the "best effort
// delivery" (P1) provider. UDP gives exactly the paper's bottom-layer
// model: messages may be delayed, lost, duplicated, or reordered, and
// everything above repairs it.
//
// Peers are configured statically: every endpoint knows the UDP
// address of every other (the paper's "resource location" concern is
// handled out of band here). The wire format is
//
//	[group length][group][sender site length][site][birth][payload]
//
// and delivery runs on one reader goroutine per endpoint, feeding the
// endpoint's event queue.
package udpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"horus/internal/core"
)

// maxDatagram bounds received packets; stacks should fragment (FRAG)
// below this.
const maxDatagram = 64 * 1024

// maxGroupAddr bounds the group-address header field. The length
// prefix is a uint16, so a corrupted or hostile datagram can claim a
// 64 KiB "group name"; no real group address is anywhere near that,
// and rejecting early keeps garbage out of the endpoint's demux map.
const maxGroupAddr = 256

// ErrOversized reports a send dropped because the framed packet would
// not fit in one datagram. Stacks that need bigger messages put FRAG
// below the sender.
var ErrOversized = errors.New("udpnet: packet exceeds max datagram size")

// ErrBadGroup reports a send dropped because the group address is too
// long for the wire header.
var ErrBadGroup = errors.New("udpnet: group address exceeds header limit")

// Stats counts transport events that the fire-and-forget
// core.Transport.Send interface cannot report inline.
type Stats struct {
	SendErrors uint64 // WriteToUDP failures
	Oversized  uint64 // sends dropped: packet or group address too big
	Malformed  uint64 // inbound datagrams that failed header parsing
	Truncated  uint64 // inbound datagrams cut off at the buffer size
}

// Transport is one endpoint's UDP attachment. It implements
// core.Transport.
type Transport struct {
	mu        sync.Mutex
	conn      *net.UDPConn
	self      core.EndpointID
	peers     map[core.EndpointID]netip.AddrPort
	ep        *core.Endpoint
	closed    bool
	start     time.Time
	stats     Stats
	onSendErr func(dest core.EndpointID, err error)
	feedback  func() core.EgressFeedback

	// sendMu serialises Sends and guards their scratch, which belongs
	// to the transport and is reused from one Send to the next: the
	// framed datagram and the resolved destinations. It is taken
	// before mu, and no callback runs under it.
	sendMu  sync.Mutex
	frame   []byte
	targets []target
}

// target is one resolved destination of the Send in progress.
type target struct {
	id   core.EndpointID
	addr netip.AddrPort
}

// Listen opens a UDP socket for an endpoint with the given identity.
// Use addr ":0" for an ephemeral port; Addr reports the bound address.
func Listen(addr string, self core.EndpointID) (*Transport, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: %w", err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: %w", err)
	}
	t := &Transport{
		conn:  conn,
		self:  self,
		peers: make(map[core.EndpointID]netip.AddrPort),
		start: time.Now(),
	}
	return t, nil
}

// Addr returns the bound UDP address.
func (t *Transport) Addr() *net.UDPAddr { return t.conn.LocalAddr().(*net.UDPAddr) }

// AddPeer registers another endpoint's address (including our own, if
// self-delivery over the network is desired).
func (t *Transport) AddPeer(id core.EndpointID, addr *net.UDPAddr) {
	// Unmapped, because an IPv4 socket refuses the 4-in-6 form that a
	// 16-byte net.IP converts to and an IPv6 socket takes either.
	ap := addr.AddrPort()
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[id] = ap
}

// NewEndpoint creates the core endpoint on this transport and starts
// the reader goroutine. Call exactly once per transport.
func (t *Transport) NewEndpoint() *core.Endpoint {
	ep := core.NewEndpoint(t.self, t)
	t.mu.Lock()
	t.ep = ep
	t.mu.Unlock()
	go t.readLoop(ep)
	return ep
}

// SetSendErrorHook registers a callback invoked whenever a send is
// dropped or fails at the socket. core.Transport.Send has no error
// return — the network model is best-effort, so errors ARE loss — but
// operators still want to see them; the hook (and Stats) surface what
// the interface swallows. The callback runs on the sending goroutine;
// keep it fast. A zero dest means the failure was not per-destination
// (e.g. an oversized broadcast rejected before addressing).
func (t *Transport) SetSendErrorHook(fn func(dest core.EndpointID, err error)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onSendErr = fn
}

// SetEgressFeedback registers the source for this endpoint's egress
// congestion ledger, making the transport a core.CongestionReporter.
// The kernel gives a bare UDP socket no backpressure ledger of its
// own, so a metering proxy (chaosnet) installs a closure over its
// per-host counters here — the same feedback vocabulary the simulator
// serves natively. The closure must be safe to call from the
// endpoint's event loop.
func (t *Transport) SetEgressFeedback(fn func() core.EgressFeedback) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.feedback = fn
}

// EgressFeedback implements core.CongestionReporter. A transport
// serves exactly one endpoint, so the id is ignored. Without an
// installed feedback source it reports a zero ledger (callers reach
// this only through the installed hook; Context.EgressFeedback sees
// the interface as implemented either way).
func (t *Transport) EgressFeedback(core.EndpointID) core.EgressFeedback {
	t.mu.Lock()
	fn := t.feedback
	t.mu.Unlock()
	if fn == nil {
		return core.EgressFeedback{}
	}
	return fn()
}

// Stats returns a snapshot of the transport's error counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// sendFailed counts a send that was dropped (counter points at
// Oversized) or failed at the socket (SendErrors) and reports it to the
// hook. The caller holds no transport lock.
func (t *Transport) sendFailed(counter *uint64, dest core.EndpointID, err error) {
	t.mu.Lock()
	*counter++
	fn := t.onSendErr
	t.mu.Unlock()
	if fn != nil {
		fn(dest, err)
	}
}

// readLoop dispatches inbound datagrams to the endpoint. The buffer
// is one byte larger than the biggest legal datagram so truncation by
// the kernel is detectable instead of silently corrupting the tail.
func (t *Transport) readLoop(ep *core.Endpoint) {
	buf := make([]byte, maxDatagram+1)
	var group core.GroupAddr // of the previous datagram; see decode
	var payloads slab
	for {
		n, _, err := t.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		if payload, ok := t.accept(buf[:n], &group, &payloads); ok {
			ep.Deliver(group, payload)
		}
	}
}

// accept checks one datagram as it was read and counts it if it is
// rejected; otherwise it sets group and returns the payload, carved
// from payloads, for Endpoint.Deliver.
func (t *Transport) accept(pkt []byte, group *core.GroupAddr, payloads *slab) ([]byte, bool) {
	if len(pkt) > maxDatagram {
		t.mu.Lock()
		t.stats.Truncated++
		t.mu.Unlock()
		return nil, false
	}
	g, payload, ok := decode(pkt, *group, payloads)
	if !ok {
		t.mu.Lock()
		t.stats.Malformed++
		t.mu.Unlock()
		return nil, false
	}
	*group = g
	return payload, true
}

// Send implements core.Transport: one datagram per destination, framed
// once into the transport's scratch. Empty dests broadcasts to every
// known peer. Errors cannot be returned through this interface; they
// are counted in Stats and reported via SetSendErrorHook.
func (t *Transport) Send(from core.EndpointID, group core.GroupAddr, dests []core.EndpointID, wire []byte) {
	if len(group) > maxGroupAddr {
		t.sendFailed(&t.stats.Oversized, core.EndpointID{}, ErrBadGroup)
		return
	}
	if 2+len(group)+len(wire) > maxDatagram {
		// Oversized: dropped like any best-effort network would; FRAG
		// exists for this.
		t.sendFailed(&t.stats.Oversized, core.EndpointID{}, ErrOversized)
		return
	}
	for _, f := range t.write(group, dests, wire) {
		// Best effort: an error is loss, but a counted, reportable one.
		t.sendFailed(&t.stats.SendErrors, f.dest, f.err)
	}
}

// writeFailure is one destination the socket refused.
type writeFailure struct {
	dest core.EndpointID
	err  error
}

// write frames the datagram and writes it to each destination under
// sendMu, and returns the failures for Send to report once the lock is
// released.
func (t *Transport) write(group core.GroupAddr, dests []core.EndpointID, wire []byte) (failed []writeFailure) {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.targets = t.targets[:0]
	if len(dests) == 0 {
		for id, a := range t.peers {
			t.targets = append(t.targets, target{id, a})
		}
	} else {
		for _, d := range dests {
			if a, ok := t.peers[d]; ok {
				t.targets = append(t.targets, target{d, a})
			}
		}
	}
	t.mu.Unlock()

	t.frame = appendFrame(t.frame[:0], group, wire)
	for _, tgt := range t.targets {
		if _, err := t.conn.WriteToUDPAddrPort(t.frame, tgt.addr); err != nil {
			failed = append(failed, writeFailure{tgt.id, err})
		}
	}
	return failed
}

// SetTimer implements core.Transport with wall-clock timers.
func (t *Transport) SetTimer(d time.Duration, fn func()) (cancel func()) {
	timer := time.AfterFunc(d, fn)
	return func() { timer.Stop() }
}

// Now implements core.Transport.
func (t *Transport) Now() time.Duration { return time.Since(t.start) }

// Close shuts the socket; the reader goroutine exits.
func (t *Transport) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	return t.conn.Close()
}

// appendFrame appends a framed packet to dst: group length, group,
// payload. The caller has checked len(group) against maxGroupAddr.
func appendFrame(dst []byte, group core.GroupAddr, wire []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(group)))
	dst = append(dst, group...)
	return append(dst, wire...)
}

// slab is the storage the reader carves received payloads from. A
// payload is handed to Endpoint.Deliver for good, so it cannot stay in
// the read buffer; carving it from a slab that is replaced, never
// rewound, when it runs out costs one allocation per slabSize bytes
// received instead of one per datagram, and the rule of core.Transport
// holds: no byte handed over is touched again, and with its capacity
// clipped no append above can reach the next datagram's bytes. A
// retained payload (a parked or logged message) keeps its whole slab
// reachable, slabSize at most; a payload over a quarter of that gets an
// allocation of its own, so no slab is spent on, or pinned by, a few
// large datagrams.
type slab struct{ free []byte }

// slabSize is how much payload storage the reader allocates at a time.
const slabSize = 16 * 1024

// carve returns a copy of p that nothing else will write to.
func (s *slab) carve(p []byte) []byte {
	if len(p) > slabSize/4 {
		out := make([]byte, len(p))
		copy(out, p)
		return out
	}
	if len(p) > len(s.free) {
		s.free = make([]byte, slabSize)
	}
	out := s.free[:len(p):len(p)]
	s.free = s.free[len(p):]
	copy(out, p)
	return out
}

// decode parses a framed packet, rejecting truncated headers (length
// prefix promising more bytes than the datagram holds) and oversized
// ones (group-address field beyond maxGroupAddr). The payload is copied
// out of pkt — the reader reuses that buffer — into storage carved from
// payloads, and the copy is handed to Endpoint.Deliver for good,
// becoming the received message itself.
// last is the group address of the previous datagram: consecutive
// datagrams nearly always belong to one group, and returning last when
// the bytes match saves a string per datagram.
func decode(pkt []byte, last core.GroupAddr, payloads *slab) (core.GroupAddr, []byte, bool) {
	if len(pkt) < 2 {
		return "", nil, false
	}
	gl := int(binary.BigEndian.Uint16(pkt))
	if gl > maxGroupAddr || 2+gl > len(pkt) {
		return "", nil, false
	}
	group := last
	if string(pkt[2:2+gl]) != string(last) {
		group = core.GroupAddr(pkt[2 : 2+gl])
	}
	return group, payloads.carve(pkt[2+gl:]), true
}
