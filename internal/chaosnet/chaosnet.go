//horus:wallclock — fault proxy over real UDP sockets: delays, flap
// timers, and bandwidth pacing execute at genuine wall-clock speed.

// Package chaosnet runs the chaos harness's fault vocabulary over
// real UDP sockets: an in-process lossy proxy stands between every
// pair of members, so the same typed schedules that drive the
// simulator (loss ramps, asymmetric loss, flaps, crashes as new
// incarnations, partitions) execute against genuine kernel sockets at
// wall-clock speed.
//
// Topology: each member i owns a real udpnet transport bound to A_i
// and a proxy socket P_i. Peers are wired to P_i, never to A_i, so
// every frame addressed to i arrives at the proxy first:
//
//	member j ──A_j──▶ P_i ──(drop/delay/dup/garble?)──▶ A_i ──▶ member i
//
// The proxy identifies the sender by source address (udpnet sends
// from its listen socket) and hands the frame to the fabric's embedded
// netsim.Rules — the same rule table and the same per-packet pipeline
// the simulator runs, against wall time — which forwards, delays,
// throttles, holds back, duplicates, garbles, or drops it. Crashes,
// detaches, and partitions are enforced the same way: a frame to or
// from a crashed member, or across partition components, is swallowed.
//
// The package implements the chaos.Fabric interface structurally (it
// does not import chaos), so `chaos.Config{Fabric: chaosnet.New(...)}`
// runs the whole cluster driver — workload, reconciler, invariant
// checkers — unchanged over UDP. Nothing here is deterministic: the
// kernel schedules delivery, so chaosnet runs validate the protocols
// against real timing, while the simulator remains the replay tool.
package chaosnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"horus/internal/core"
	"horus/internal/netsim"
	"horus/internal/udpnet"
)

// Stats counts proxy-level activity across all members — the fault
// ledger attached to every UDP seed line. Reordered and Throttled
// mirror the netsim counters of the same names, so the two fabrics
// report rule firings in the same vocabulary.
type Stats struct {
	Forwarded  int // frames relayed to a member's real socket
	Dropped    int // frames dropped by a link's loss rate
	Blocked    int // frames dropped by crash, detach, or partition
	Duplicated int // extra copies delivered by duplication
	Garbled    int // frames corrupted in flight
	Reordered  int // frames held back by the reorder rule
	Throttled  int // frames that queued behind earlier traffic (bandwidth)
	// Congested counts frames that queued behind earlier traffic in
	// their host's shared egress bucket (Host.EgressBudget).
	Congested int
	// CollapseDropped counts frames dropped by a host's bounded egress
	// queue overflowing — offered load past the budget became loss.
	CollapseDropped int
	Unknown         int // frames from an unrecognized source address
}

// Config parameterizes a UDP fabric.
type Config struct {
	// Seed drives the proxy's fault randomness (loss, jitter, dup,
	// garble draws). Scheduling is still the kernel's, so runs are not
	// replayable — the seed only decouples fault draws from time.
	Seed int64
	// DefaultLink applies to every (src, dst) pair without an
	// override, exactly as in netsim.
	DefaultLink netsim.Link
	// Addr is the listen address for member and proxy sockets;
	// empty means "127.0.0.1:0" (ephemeral loopback).
	Addr string
}

// node is one member's attachment: its real transport and the proxy
// socket every peer sends to instead.
type node struct {
	id    core.EndpointID
	tr    *udpnet.Transport
	proxy *net.UDPConn
	ep    *core.Endpoint
	real  *net.UDPAddr // tr's bound address, the proxy's forward target
}

// Fabric is the UDP implementation of the chaos transport substrate.
// The fault vocabulary and every fault decision are the embedded Rules;
// the fabric's own are the sockets, the wall clock and the timers. All
// methods are safe for concurrent use; protocol side effects of
// Crash/Detach run through the victim endpoint's executor.
type Fabric struct {
	addr string

	mu sync.Mutex
	*netsim.Rules
	start     time.Time
	nodes     map[core.EndpointID]*node
	bySrc     map[string]core.EndpointID // member real addr -> member
	nextBirth uint64
	retired   udpnet.Stats             // transport counters of detached incarnations
	timers    map[*time.Timer]struct{} // armed by At or a reorder hold, not yet fired
	closed    bool

	forwarded, unknown atomic.Int64 // the two Stats counters the rules do not keep

	wg sync.WaitGroup
}

// New builds an empty UDP fabric; endpoints attach via NewEndpoint.
func New(cfg Config) *Fabric {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	f := &Fabric{
		addr:      cfg.Addr,
		start:     time.Now(),
		nodes:     make(map[core.EndpointID]*node),
		bySrc:     make(map[string]core.EndpointID),
		nextBirth: 1,
		timers:    make(map[*time.Timer]struct{}),
	}
	f.Rules = netsim.NewRules(&f.mu, (*carrier)(f), cfg.Seed, cfg.DefaultLink)
	return f
}

// NewEndpoint boots a member: a real udpnet transport, its proxy
// socket, and full peer wiring in both directions (existing members
// learn the newcomer's proxy; the newcomer learns theirs). Birth
// identities follow call order, matching the simulator, so schedules
// resolve slots identically on either fabric.
func (f *Fabric) NewEndpoint(site string) *core.Endpoint {
	f.mu.Lock()
	id := core.EndpointID{Site: site, Birth: f.nextBirth}
	f.nextBirth++
	f.mu.Unlock()

	tr, err := udpnet.Listen(f.addr, id)
	if err != nil {
		panic(fmt.Sprintf("chaosnet: member socket: %v", err))
	}
	proxyAddr := &net.UDPAddr{IP: tr.Addr().IP, Port: 0}
	proxy, err := net.ListenUDP("udp", proxyAddr)
	if err != nil {
		panic(fmt.Sprintf("chaosnet: proxy socket: %v", err))
	}
	n := &node{id: id, tr: tr, proxy: proxy, real: tr.Addr()}

	f.mu.Lock()
	for _, o := range f.nodes {
		o.tr.AddPeer(id, proxy.LocalAddr().(*net.UDPAddr))
		tr.AddPeer(o.id, o.proxy.LocalAddr().(*net.UDPAddr))
	}
	// The member is a peer of itself, through its own proxy: netsim
	// delivers loopback casts (subject to link faults, exempt from the
	// egress bucket), so the UDP fabric must too, or every self-
	// addressed copy of a group cast silently vanishes.
	tr.AddPeer(id, proxy.LocalAddr().(*net.UDPAddr))
	f.nodes[id] = n
	f.bySrc[tr.Addr().String()] = id
	f.mu.Unlock()

	// The member's transport serves the fabric's egress ledger to its
	// stack: layers polling Context.EgressFeedback over UDP read the
	// same per-host counters the simulator serves natively.
	tr.SetEgressFeedback(func() core.EgressFeedback { return f.EgressFeedback(id) })

	n.ep = tr.NewEndpoint()
	f.wg.Add(1)
	go f.proxyLoop(n)
	return n.ep
}

// proxyLoop relays frames arriving at a member's proxy socket to the
// member's real socket, applying the directed link rule for each
// (sender, member) pair.
func (f *Fabric) proxyLoop(n *node) {
	defer f.wg.Done()
	buf := make([]byte, 64*1024+1)
	for {
		sz, src, err := n.proxy.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		pkt := make([]byte, sz)
		copy(pkt, buf[:sz])
		f.route(n, src.String(), pkt)
	}
}

// route names the sender of one frame that reached n's proxy and puts
// the frame through the rules.
func (f *Fabric) route(n *node, src string, pkt []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	from, ok := f.bySrc[src]
	if !ok {
		f.unknown.Add(1)
		return
	}
	f.Route(from, n.id, "", pkt)
}

// carrier is Fabric as its Rules see it.
type carrier Fabric

func (c *carrier) Clock() time.Duration { return time.Since(c.start) }

// Emit forwards one frame to the member's real socket: at once on a
// link without delay, so a perfect link stays in order, otherwise from
// a timer goroutine. The frame already names its group.
func (c *carrier) Emit(dst core.EndpointID, _ core.GroupAddr, pkt []byte, delay time.Duration) {
	f := (*Fabric)(c)
	n := f.nodes[dst]
	if n == nil {
		return // detached while the frame was held
	}
	if delay <= 0 {
		f.forward(n, pkt)
		return
	}
	time.AfterFunc(delay, func() { f.forward(n, pkt) })
}

func (c *carrier) Arm(d time.Duration, fn func()) { (*Fabric)(c).afterLocked(d, fn) }

// forward writes one frame to the member's real socket and counts it.
func (f *Fabric) forward(n *node, pkt []byte) {
	if _, err := n.proxy.WriteToUDP(pkt, n.real); err == nil {
		f.forwarded.Add(1)
	} // else the member socket is gone; the frame is just lost
}

// afterLocked arms a timer that runs fn after d unless the fabric has
// closed by then, and tracks it for as long as it is armed. Callers
// hold f.mu — which is also what keeps the timer from looking itself up
// before it has been recorded.
func (f *Fabric) afterLocked(d time.Duration, fn func()) {
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		f.mu.Lock()
		delete(f.timers, t)
		closed := f.closed
		f.mu.Unlock()
		if !closed {
			fn()
		}
	})
	f.timers[t] = struct{}{}
}

// Now is wall time since the fabric was built.
func (f *Fabric) Now() time.Duration { return time.Since(f.start) }

// At schedules fn at absolute fabric time t on a timer goroutine.
// After Close, pending timers are stopped and new ones are not armed —
// that is what ends the cluster's self-re-arming workload ticks.
func (f *Fabric) At(t time.Duration, fn func()) {
	d := t - f.Now()
	if d < 0 {
		d = 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.afterLocked(d, fn)
}

// RunFor sleeps: on a wall-clock fabric the sockets run themselves.
func (f *Fabric) RunFor(d time.Duration) { time.Sleep(d) }

// Crash fail-stops a member: its stacks are destroyed (timers die,
// protocol execution halts) and the proxy swallows everything to or
// from it. Peers observe silence, the failure model the stack turns
// into clean view changes.
func (f *Fabric) Crash(id core.EndpointID) {
	f.mu.Lock()
	n := f.nodes[id]
	f.MarkCrashed(id)
	f.mu.Unlock()
	if n != nil {
		n.ep.Destroy()
	}
}

// Detach removes a (typically crashed) incarnation entirely: its
// sockets close, its proxy loop exits, and its fault bookkeeping is
// forgotten. Peers still hold a wiring entry for the dead proxy, but
// frames sent there vanish into a closed socket — exactly the
// best-effort semantics of sending to a dead host.
func (f *Fabric) Detach(id core.EndpointID) {
	f.Crash(id)
	f.mu.Lock()
	n := f.nodes[id]
	if n != nil {
		f.retired.SendErrors += n.tr.Stats().SendErrors
		f.retired.Oversized += n.tr.Stats().Oversized
		f.retired.Malformed += n.tr.Stats().Malformed
		f.retired.Truncated += n.tr.Stats().Truncated
		delete(f.bySrc, n.real.String())
	}
	delete(f.nodes, id)
	f.Forget(id)
	f.mu.Unlock()
	if n != nil {
		n.tr.Close()
		n.proxy.Close()
	}
}

// Stats snapshots the proxy counters: the rules' ledger in this
// package's vocabulary, plus what the sockets saw.
func (f *Fabric) Stats() Stats {
	r := f.Rules.Stats()
	return Stats{
		Forwarded: int(f.forwarded.Load()), Dropped: r.Lost, Blocked: r.Blocked,
		Duplicated: r.Duplicated, Garbled: r.Garbled, Reordered: r.Reordered,
		Throttled: r.Throttled, Congested: r.Congested, CollapseDropped: r.CollapseDropped,
		Unknown: int(f.unknown.Load()),
	}
}

// TransportStats sums the udpnet counters over every incarnation that
// ever attached, including detached ones: transport-level trouble
// (send failures, malformed datagrams) survives the member it
// happened to.
func (f *Fabric) TransportStats() udpnet.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := f.retired
	for _, n := range f.nodes {
		s := n.tr.Stats()
		total.SendErrors += s.SendErrors
		total.Oversized += s.Oversized
		total.Malformed += s.Malformed
		total.Truncated += s.Truncated
	}
	return total
}

// Close quiesces the fabric: stops schedule timers, destroys every
// member stack (cancelling protocol timers), closes all sockets, and
// waits for the proxy goroutines to exit. After Close, recorded
// histories are stable and safe to check.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	for t := range f.timers {
		t.Stop()
	}
	nodes := make([]*node, 0, len(f.nodes))
	for _, n := range f.nodes {
		nodes = append(nodes, n)
	}
	f.mu.Unlock()

	for _, n := range nodes {
		n.ep.Destroy()
	}
	for _, n := range nodes {
		n.tr.Close()
		n.proxy.Close()
	}
	f.wg.Wait()
}
