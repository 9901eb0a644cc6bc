package chaosnet

import (
	"net"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/netsim"
)

// waitFor polls cond for up to 2s — wall-clock tests cannot assert on
// exact timing, only eventual counters.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}

func TestProxyCountsUnknownSources(t *testing.T) {
	f := New(Config{Seed: 1})
	defer f.Close()
	f.NewEndpoint("a")

	// A frame from a socket the fabric never registered must be
	// swallowed and counted, not forwarded.
	var proxyAddr *net.UDPAddr
	f.mu.Lock()
	for _, n := range f.nodes {
		proxyAddr = n.proxy.LocalAddr().(*net.UDPAddr)
	}
	f.mu.Unlock()

	stranger, err := net.DialUDP("udp", nil, proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	if _, err := stranger.Write([]byte("who dis")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return f.Unknown() >= 1 })
	if got := f.Stats().Delivered; got != 0 {
		t.Fatalf("stranger frame forwarded %d times", got)
	}
}

func TestProxyEnforcesCrashAndPartition(t *testing.T) {
	f := New(Config{Seed: 2})
	defer f.Close()
	epA := f.NewEndpoint("a")
	epB := f.NewEndpoint("b")
	a, b := epA.ID(), epB.ID()

	var na, nb *node
	f.mu.Lock()
	na, nb = f.nodes[a], f.nodes[b]
	f.mu.Unlock()

	// Drive the checks through route() directly: source-address
	// identification is covered by the cluster smoke in fabric_test.go;
	// here we pin the rule table itself.
	frame := []byte{0, 0, 'x'}
	f.route(nb, na.real.String(), frame)
	waitFor(t, func() bool { return f.Stats().Delivered == 1 })

	f.Partition([]core.EndpointID{a}, []core.EndpointID{b})
	f.route(nb, na.real.String(), frame)
	waitFor(t, func() bool { return f.Stats().Blocked == 1 })

	f.Heal()
	f.route(nb, na.real.String(), frame)
	waitFor(t, func() bool { return f.Stats().Delivered == 2 })

	f.Crash(a)
	f.route(nb, na.real.String(), frame)
	waitFor(t, func() bool { return f.Stats().Blocked == 2 })
}

func TestProxyAppliesLossAndDirectedLinks(t *testing.T) {
	f := New(Config{Seed: 3})
	defer f.Close()
	epA := f.NewEndpoint("a")
	epB := f.NewEndpoint("b")
	a, b := epA.ID(), epB.ID()

	var na, nb *node
	f.mu.Lock()
	na, nb = f.nodes[a], f.nodes[b]
	f.mu.Unlock()

	// Full loss a->b drops everything; the reverse direction is clean.
	f.SetLinkDirected(a, b, netsim.Link{LossRate: 1})
	frame := []byte{0, 0, 'x'}
	for i := 0; i < 10; i++ {
		f.route(nb, na.real.String(), frame) // a -> b: lossy
	}
	waitFor(t, func() bool { return f.Stats().Lost == 10 })
	f.route(na, nb.real.String(), frame) // b -> a: default link
	waitFor(t, func() bool { return f.Stats().Delivered == 1 })

	// ClearLink restores the default in both directions.
	f.ClearLink(a, b)
	f.route(nb, na.real.String(), frame)
	waitFor(t, func() bool { return f.Stats().Delivered == 2 })
}

// TestProxyReorderHoldAndRelease: a frame held by the reorder rule is
// overtaken by exactly ReorderDepth later departures; the ledger
// records the hold.
func TestProxyReorderHoldAndRelease(t *testing.T) {
	f := New(Config{Seed: 5})
	defer f.Close()
	epA := f.NewEndpoint("a")
	epB := f.NewEndpoint("b")
	a, b := epA.ID(), epB.ID()

	var na, nb *node
	f.mu.Lock()
	na, nb = f.nodes[a], f.nodes[b]
	f.mu.Unlock()

	// Hold the first frame, then disarm the rule so the followers
	// depart normally and count against its depth.
	f.SetLinkDirected(a, b, netsim.Link{ReorderRate: 1, ReorderDepth: 2})
	f.route(nb, na.real.String(), []byte{0, 0, 'x'})
	waitFor(t, func() bool { return f.Stats().Reordered == 1 })
	if got := f.Stats().Delivered; got != 0 {
		t.Fatalf("held frame forwarded %d times before release", got)
	}
	f.ClearLink(a, b)
	f.route(nb, na.real.String(), []byte{0, 0, 'y'})
	f.route(nb, na.real.String(), []byte{0, 0, 'z'})
	// Two departures exhaust the depth: all three frames arrive.
	waitFor(t, func() bool { return f.Stats().Delivered == 3 })
}

// TestProxyReorderBackstopReleasesQuietLink: with no follow-up traffic
// the hold timer releases the frame — the rule delays, never loses.
func TestProxyReorderBackstopReleasesQuietLink(t *testing.T) {
	f := New(Config{Seed: 6})
	defer f.Close()
	epA := f.NewEndpoint("a")
	epB := f.NewEndpoint("b")
	a, b := epA.ID(), epB.ID()

	var na, nb *node
	f.mu.Lock()
	na, nb = f.nodes[a], f.nodes[b]
	f.mu.Unlock()

	f.SetLinkDirected(a, b, netsim.Link{
		ReorderRate: 1, ReorderDepth: 5, ReorderHold: 30 * time.Millisecond,
	})
	f.route(nb, na.real.String(), []byte{0, 0, 'q'})
	waitFor(t, func() bool { return f.Stats().Delivered == 1 })
	if got := f.Stats().Reordered; got != 1 {
		t.Fatalf("Reordered = %d, want 1", got)
	}
}

// TestProxyBandwidthSerializes: a burst over a capped link queues, the
// ledger counts every frame that waited, and all of them still arrive.
func TestProxyBandwidthSerializes(t *testing.T) {
	f := New(Config{Seed: 7})
	defer f.Close()
	epA := f.NewEndpoint("a")
	epB := f.NewEndpoint("b")
	a, b := epA.ID(), epB.ID()

	var na, nb *node
	f.mu.Lock()
	na, nb = f.nodes[a], f.nodes[b]
	f.mu.Unlock()

	// 3-byte frames at 1000 B/s: 3ms of link each; a burst of 5 makes
	// every frame after the first queue behind the backlog.
	f.SetLinkDirected(a, b, netsim.Link{Bandwidth: 1000})
	start := time.Now()
	for i := 0; i < 5; i++ {
		f.route(nb, na.real.String(), []byte{0, 0, byte('0' + i)})
	}
	waitFor(t, func() bool { return f.Stats().Delivered == 5 })
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("burst drained in %v, want >= 12ms of serialization", elapsed)
	}
	if got := f.Stats().Throttled; got != 4 {
		t.Fatalf("Throttled = %d, want 4 (burst of 5, first finds the link idle)", got)
	}
}

// TestGarbleLedgerMatchesDecodeErrors: every frame the proxy corrupts
// is a frame udpnet refuses to decode — the proxy's garble ledger and
// the transport's Malformed counter must agree exactly. The frames are
// bare 2-byte headers (empty group, empty payload), so any single-byte
// flip turns the length prefix into a promise the datagram cannot
// keep.
func TestGarbleLedgerMatchesDecodeErrors(t *testing.T) {
	f := New(Config{Seed: 8})
	defer f.Close()
	epA := f.NewEndpoint("a")
	epB := f.NewEndpoint("b")
	a, b := epA.ID(), epB.ID()

	var na, nb *node
	f.mu.Lock()
	na, nb = f.nodes[a], f.nodes[b]
	f.mu.Unlock()

	f.SetLinkDirected(a, b, netsim.Link{GarbleRate: 1})
	const frames = 25
	for i := 0; i < frames; i++ {
		f.route(nb, na.real.String(), []byte{0, 0})
	}
	waitFor(t, func() bool {
		return f.Stats().Delivered == frames && f.TransportStats().Malformed == frames
	})
	if got := f.Stats().Garbled; got != frames {
		t.Fatalf("Garbled = %d, want %d", got, frames)
	}
	if got := f.TransportStats().Malformed; got != uint64(frames) {
		t.Fatalf("Malformed = %d, want %d (every garbled frame must fail decode)", got, frames)
	}
}
