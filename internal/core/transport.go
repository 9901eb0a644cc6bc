package core

import "time"

// Transport is the environment underneath the bottom layer of every
// stack: a best-effort (property P1) message carrier plus a timer
// service. The network simulator implements it for deterministic
// discrete-event runs; a goroutine-based implementation provides
// wall-clock behaviour. Messages handed to Send may be delayed, lost,
// duplicated, reordered, or garbled — recovering from all of that is
// exactly the job of the layers above.
//
// On the receive side a transport calls Endpoint.Deliver with a buffer
// it never touches again: the endpoint owns it from then on and the
// message the stack sees is a view of it, not a copy. One buffer may
// be delivered to several endpoints (the destinations of one Send),
// because received headers and bodies are read-only for every layer
// and handler above; see Endpoint.Deliver.
type Transport interface {
	// Send transmits wire bytes from the given endpoint to each
	// destination, best effort. An empty dests slice means "all
	// endpoints attached to the group address" (used before any view
	// is known, e.g. by merge discovery). The transport must not
	// retain wire after Send returns: the compiled cast fast path
	// passes a per-stack scratch buffer that is overwritten by the
	// next cast. Both fabrics honour this — netsim copies once per
	// Send, udpnet frames into scratch of its own that the kernel has
	// copied from by the time the write returns.
	Send(from EndpointID, group GroupAddr, dests []EndpointID, wire []byte)

	// SetTimer schedules fn after d. The returned function cancels the
	// timer if it has not fired.
	SetTimer(d time.Duration, fn func()) (cancel func())

	// Now returns the current transport time. For simulated transports
	// this is virtual time.
	Now() time.Duration
}

// GroupRegistrar is the optional transport interface behind
// group-scoped broadcast. A transport that implements it is told which
// endpoints have a stack composed for which group address, so an
// empty-dests Send can fan out to exactly the endpoints that could
// accept the packet instead of every endpoint attached to the medium —
// the difference between O(group) and O(cluster) work per discovery
// broadcast once thousands of endpoints share one fabric. Transports
// without it (real sockets, RealTime) keep the shared-medium model;
// receivers still drop packets for groups they have not joined, so the
// optimization is behaviour-preserving.
type GroupRegistrar interface {
	// JoinGroup records that id has composed a stack for group g.
	// Called once per successful Join, in join order.
	JoinGroup(id EndpointID, g GroupAddr)
	// LeaveGroup removes the registration (leave, destroy, crash).
	LeaveGroup(id EndpointID, g GroupAddr)
}

// EgressFeedback is a snapshot of the local egress ledger for one
// sending host: how much the host's token bucket is backed up and how
// many frames the fabric has delayed or dropped on its account. It is
// the congestion vocabulary surfaced *into* the layer interface — an
// adaptive layer polls it through Context.EgressFeedback and closes
// the loop between fabric backpressure and the send path, instead of
// discovering overload only through end-to-end loss.
type EgressFeedback struct {
	// BacklogBytes is the current depth of the host's egress queue:
	// bytes admitted by the token bucket but not yet clear of the
	// serialization horizon. Zero when the bucket is idle.
	BacklogBytes int

	// Congested counts frames from this host that were queued behind
	// the egress budget (delivered late) since the fabric started.
	Congested uint64

	// CollapseDropped counts frames from this host dropped because the
	// egress queue overflowed — the congestion-collapse signal.
	CollapseDropped uint64
}

// CongestionReporter is the optional transport interface behind the
// egress feedback hook. Fabrics that meter per-host egress (netsim,
// chaosnet via udpnet) implement it; transports without an egress
// model simply don't, and Context.EgressFeedback reports ok=false.
type CongestionReporter interface {
	// EgressFeedback snapshots the egress ledger for the given sending
	// endpoint. Must be safe to call from the endpoint's event loop.
	EgressFeedback(id EndpointID) EgressFeedback
}
