package chaos

import (
	"time"

	"horus/internal/core"
	"horus/internal/netsim"
)

// Fabric abstracts the transport substrate a chaos cluster runs over:
// endpoint boot, the clock, deferred execution, and the fault
// vocabulary of the schedule language. The simulated fabric wraps
// netsim.Network (virtual time, fully deterministic);
// internal/chaosnet provides a wall-clock implementation over real UDP
// sockets through an in-process lossy proxy. The cluster driver and
// the invariant checkers only ever talk to this interface, so every
// typed schedule runs unchanged on either substrate.
type Fabric interface {
	// NewEndpoint boots a fresh endpoint at the named site. Birth
	// identities follow call order on every fabric, so a schedule's
	// slot-to-endpoint resolution is the same on sim and UDP.
	NewEndpoint(site string) *core.Endpoint

	// Now is the fabric clock: virtual time on sim, wall time on UDP.
	Now() time.Duration
	// At schedules fn at absolute fabric time t. fn may run on a
	// fabric-owned goroutine; anything it does to a protocol stack
	// must go through Endpoint.Do.
	At(t time.Duration, fn func())
	// RunFor advances the clock by d: the sim fabric runs its event
	// loop, the UDP fabric sleeps while the sockets run themselves.
	RunFor(d time.Duration)

	// Fault vocabulary — the rule setters are netsim.Rules', which
	// every fabric embeds: directed link overrides with a default
	// fallback, per-host egress budgets shared across all of a member's
	// outgoing links, global component partitions. Crash (fail-stop)
	// and Detach (forget a dead incarnation) are the fabric's own, since
	// they also tear an endpoint down.
	SetLink(a, b core.EndpointID, l netsim.Link)
	SetLinkDirected(from, to core.EndpointID, l netsim.Link)
	ClearLink(a, b core.EndpointID)
	SetHost(id core.EndpointID, h netsim.Host)
	ClearHost(id core.EndpointID)
	Crash(id core.EndpointID)
	Detach(id core.EndpointID)
	Partition(groups ...[]core.EndpointID)
	Heal()

	// Stats snapshots the fabric's packet ledger: the rules' fault
	// counters, and what reached a member (Delivered, Bytes).
	Stats() netsim.Stats

	// Close releases fabric resources (sockets, proxy goroutines,
	// pending timers). The sim fabric has none, but callers must stay
	// transport-agnostic and call it regardless.
	Close()
}

// simFabric adapts *netsim.Network to Fabric. Everything is embedded;
// only Close needs a stub — a simulation holds no OS resources.
type simFabric struct{ *netsim.Network }

func (simFabric) Close() {}

// NewSimFabric builds the deterministic simulated fabric used by
// default: seeded virtual-time event loop, one default link for every
// pair.
func NewSimFabric(seed int64, link netsim.Link) Fabric {
	return simFabric{netsim.New(netsim.Config{Seed: seed, DefaultLink: link})}
}
