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
// handled out of band here). A datagram is
//
//	[uint16 group length][group][payload]
//
// with the payload the stack's wire image. The sender's name rides in
// COM's header, usually as its birth alone: the transport is a
// core.Directory over its own identifier and its peer table, so a
// receiver whose table names the sender supplies the site. Delivery
// runs on one reader goroutine per endpoint, feeding the endpoint's
// event queue.
package udpnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"horus/internal/core"
	"horus/internal/message"
)

// maxDatagram bounds received packets; stacks should fragment (FRAG)
// below this.
const maxDatagram = 64 * 1024

// maxGroupAddr bounds the group-address header field. The length
// prefix is a uint16, so a corrupted or hostile datagram can claim a
// 64 KiB "group name"; no real group address is anywhere near that,
// and rejecting early keeps garbage out of the endpoint's demux map.
const maxGroupAddr = 256

// Stats counts transport events that the fire-and-forget
// core.Transport.Send interface cannot report inline: the network model
// is best-effort, so a failed send is loss, but a counted one.
type Stats struct {
	SendErrors uint64 // WriteToUDP failures
	Oversized  uint64 // sends dropped: packet or group address too big
	Malformed  uint64 // inbound datagrams that failed header parsing
	Truncated  uint64 // inbound datagrams cut off at the buffer size
}

// Transport is one endpoint's UDP attachment. It implements
// core.Transport.
type Transport struct {
	mu    sync.Mutex
	conn  *net.UDPConn
	self  core.EndpointID
	peers map[core.EndpointID]netip.AddrPort
	// names holds every identifier the transport names by its birth
	// (Named): its own, each peer's and each Name registered. A birth
	// keeps the identifier it was first registered with.
	names    map[uint64]core.EndpointID
	ep       *core.Endpoint
	closed   bool
	start    time.Time
	stats    Stats
	feedback func() core.EgressFeedback

	// sendMu serialises Sends and guards their scratch, which belongs
	// to the transport and is reused from one Send to the next: the
	// framed datagram and the resolved destination addresses. It is
	// taken before mu.
	sendMu  sync.Mutex
	frame   []byte
	targets []netip.AddrPort
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
		names: map[uint64]core.EndpointID{self.Birth: self},
		start: time.Now(),
	}
	return t, nil
}

// Addr returns the bound UDP address.
func (t *Transport) Addr() *net.UDPAddr { return t.conn.LocalAddr().(*net.UDPAddr) }

// AddPeer registers another endpoint's address (including our own, if
// self-delivery over the network is desired) and names it by its birth
// (Named). It refuses, and registers nothing, a peer whose birth the
// transport already names under another site: a birth names one
// endpoint, or a header carrying it alone would name two.
func (t *Transport) AddPeer(id core.EndpointID, addr *net.UDPAddr) error {
	// Unmapped, because an IPv4 socket refuses the 4-in-6 form that a
	// 16-byte net.IP converts to and an IPv6 socket takes either.
	ap := addr.AddrPort()
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.nameLocked(id); err != nil {
		return err
	}
	t.peers[id] = ap
	return nil
}

// Name registers an identifier the transport names by its birth but
// sends nothing to: an incarnation that is gone, whose packets may still
// be in flight and whose name views and headers still carry. It refuses
// a birth already named under another site, as AddPeer does.
func (t *Transport) Name(id core.EndpointID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nameLocked(id)
}

func (t *Transport) nameLocked(id core.EndpointID) error {
	if had, ok := t.names[id.Birth]; ok && had != id {
		return fmt.Errorf("udpnet: birth %d names %v already, not %v", id.Birth, had, id)
	}
	t.names[id.Birth] = id
	return nil
}

// Named implements core.Directory: the transport's own identifier and
// every one AddPeer or Name registered.
func (t *Transport) Named(birth uint64) (core.EndpointID, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.names[birth]
	return id, ok
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

// countFailed adds n failed sends to the counter, which points at
// Oversized or SendErrors.
func (t *Transport) countFailed(counter *uint64, n uint64) {
	t.mu.Lock()
	*counter += n
	t.mu.Unlock()
}

// readLoop dispatches inbound datagrams to the endpoint. The buffer
// is one byte larger than the biggest legal datagram so truncation by
// the kernel is detectable instead of silently corrupting the tail.
func (t *Transport) readLoop(ep *core.Endpoint) {
	buf := make([]byte, maxDatagram+1)
	var group core.GroupAddr // of the previous datagram; see decode
	var payloads message.Slab
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
func (t *Transport) accept(pkt []byte, group *core.GroupAddr, payloads *message.Slab) ([]byte, bool) {
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
// are counted in Stats.
func (t *Transport) Send(from core.EndpointID, group core.GroupAddr, dests []core.EndpointID, wire []byte) {
	if len(group) > maxGroupAddr || 2+len(group)+len(wire) > maxDatagram {
		// Dropped like any best-effort network would: the group address
		// does not fit the header, or the packet does not fit one
		// datagram (FRAG exists for that).
		t.countFailed(&t.stats.Oversized, 1)
		return
	}
	if n := t.write(group, dests, wire); n > 0 {
		t.countFailed(&t.stats.SendErrors, n)
	}
}

// write frames the datagram and writes it to each destination under
// sendMu, and returns how many writes the socket refused.
func (t *Transport) write(group core.GroupAddr, dests []core.EndpointID, wire []byte) (failed uint64) {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return 0
	}
	t.targets = t.targets[:0]
	if len(dests) == 0 {
		for _, a := range t.peers {
			t.targets = append(t.targets, a)
		}
	} else {
		for _, d := range dests {
			if a, ok := t.peers[d]; ok {
				t.targets = append(t.targets, a)
			}
		}
	}
	t.mu.Unlock()

	t.frame = appendFrame(t.frame[:0], group, wire)
	for _, addr := range t.targets {
		if _, err := t.conn.WriteToUDPAddrPort(t.frame, addr); err != nil {
			failed++
		}
	}
	return failed
}

// ArmTimer implements core.Timers with a wall-clock timer: the handle
// holds AfterFunc's *time.Timer.
func (t *Transport) ArmTimer(d time.Duration, fn func()) core.TimerHandle {
	return core.TimerHandle{Ref: time.AfterFunc(d, fn)}
}

// CancelTimer implements core.Timers: it stops the timer h holds, which
// does nothing once the timer has fired.
func (t *Transport) CancelTimer(h core.TimerHandle) { h.Ref.(*time.Timer).Stop() }

// SetTimer implements core.Transport: ArmTimer with a cancel func.
func (t *Transport) SetTimer(d time.Duration, fn func()) (cancel func()) {
	h := t.ArmTimer(d, fn)
	return func() { t.CancelTimer(h) }
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

// decode parses a framed packet, rejecting truncated headers (length
// prefix promising more bytes than the datagram holds) and oversized
// ones (group-address field beyond maxGroupAddr). The payload is copied
// out of pkt — the reader reuses that buffer — into storage carved from
// payloads, and the copy is handed to Endpoint.Deliver for good,
// becoming the received message itself.
// last is the group address of the previous datagram: consecutive
// datagrams nearly always belong to one group, and returning last when
// the bytes match saves a string per datagram.
func decode(pkt []byte, last core.GroupAddr, payloads *message.Slab) (core.GroupAddr, []byte, bool) {
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
	return group, payloads.Carve(pkt[2+gl:]), true
}
