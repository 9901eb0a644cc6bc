package core

import (
	"fmt"
	"time"
)

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
	// is known, e.g. by merge discovery). wire passes to the transport
	// for good, as Endpoint.Deliver's buffer passes to the endpoint:
	// it is the message's wire image (message.Wire), often rendered
	// where the sender's headers lie — an application cast's record, or
	// the header storage a layer's send carved from its endpoint's slab
	// (Context.NewSendTo) — which neither the sender nor anything else
	// writes again. The transport may keep it and hand that one buffer
	// to every destination, as netsim does; it must not write it — a
	// fabric that damages bytes in flight damages a copy. udpnet frames
	// it into scratch of its own. dests is the transport's for the call
	// alone: a layer's send to one member names it in the send's
	// record, which the endpoint reuses once the run that made it ends.
	Send(from EndpointID, group GroupAddr, dests []EndpointID, wire []byte)

	// SetTimer schedules fn after d. The returned function cancels the
	// timer if it has not fired. A transport that also implements
	// Timers is armed through that; NewEndpoint adapts one that does
	// not, and the closure form lives in that adapter alone.
	SetTimer(d time.Duration, fn func()) (cancel func())

	// Now returns the current transport time. For simulated transports
	// this is virtual time.
	Now() time.Duration
}

// Timers is the optional transport interface that arms a timer by
// handle: a Timer keeps the TimerHandle of its outstanding arm and
// cancels through it, so an arm costs the transport no cancel closure.
// netsim and udpnet implement it; NewEndpoint adapts a transport that
// implements only SetTimer.
type Timers interface {
	// ArmTimer schedules fn after d and returns the handle of the arm.
	ArmTimer(d time.Duration, fn func()) TimerHandle
	// CancelTimer cancels the arm h names if it has not fired. A handle
	// whose arm has fired or been cancelled is stale: cancelling it
	// again is a no-op and reaches no later arm.
	CancelTimer(h TimerHandle)
}

// TimerHandle names one arm of a Timers transport: a reference the
// transport chooses and the generation it was armed at, so that the
// transport can recycle what Ref points to and still tell a stale
// handle. netsim's is its recycled event and that event's generation,
// udpnet's its *time.Timer. A handle whose Ref is nil names no arm.
type TimerHandle struct {
	Ref any
	Gen uint64
}

// closureTimers adapts a transport that implements only SetTimer: the
// handle holds the cancel func SetTimer returns.
type closureTimers struct{ tr Transport }

func (c closureTimers) ArmTimer(d time.Duration, fn func()) TimerHandle {
	return TimerHandle{Ref: c.tr.SetTimer(d, fn)}
}

func (closureTimers) CancelTimer(h TimerHandle) { h.Ref.(func())() }

// Directory is the optional transport interface that names an endpoint
// by its birth alone. A fabric that assigns or registers every
// identifier it carries keeps births unique (EndpointID.Birth), so a
// header can carry an endpoint as its birth and leave the site for the
// receiver's fabric to supply (package wire). netsim and chaosnet name
// every birth they ever assigned, a crashed or detached incarnation's
// included, and assign none twice; udpnet names itself and every peer
// registered with it. NewEndpoint takes a transport that does not
// implement it as naming nothing: every identifier it sends travels
// whole.
type Directory interface {
	// Named returns the identifier the fabric knows by birth, and
	// whether it knows one. Safe to call from any endpoint's event
	// loop.
	Named(birth uint64) (EndpointID, bool)
}

// Unnamed is the value a header decoder panics with when a header
// names an endpoint by a birth that neither the list it resolves
// against nor the endpoint's Directory names. It is line damage, as
// message.ShortRead is: the endpoint drops the packet and counts it
// (Endpoint.Malformed), and nothing goes up under an invented identity.
type Unnamed struct {
	Birth uint64
}

func (u Unnamed) Error() string {
	return fmt.Sprintf("core: no endpoint is named by birth %d", u.Birth)
}

// GroupRegistrar is the optional transport interface behind
// group-scoped broadcast. A transport that implements it is told which
// endpoints have a stack composed for which group address, so an
// empty-dests Send can fan out to exactly the endpoints that could
// accept the packet instead of every endpoint attached to the medium —
// the difference between O(group) and O(cluster) work per discovery
// broadcast once thousands of endpoints share one fabric. Transports
// without it (real sockets) keep the shared-medium model;
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
