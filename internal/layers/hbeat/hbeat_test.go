package hbeat_test

import (
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/hbeat"
	"horus/internal/layertest"
	"horus/internal/message"
)

const period = 10 * time.Millisecond

func harness(t *testing.T, opts ...hbeat.Option) *layertest.Harness {
	t.Helper()
	opts = append([]hbeat.Option{hbeat.WithPeriod(period)}, opts...)
	return layertest.New(t, hbeat.NewWith(opts...))
}

// beat fakes an arriving heartbeat from peer at the current virtual
// time.
func beat(h *layertest.Harness, peer core.EndpointID) {
	m := message.New(nil)
	m.PushUint8(3) // kBeat
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
}

func TestHeartbeatsSentOncePerPeriod(t *testing.T) {
	h := harness(t)
	peer := layertest.ID("peer", 1)
	h.InstallView(h.Self(), peer)
	h.Run(10 * period)
	casts := h.DownOfType(core.DCast)
	if n := len(casts); n < 8 || n > 11 {
		t.Fatalf("sent %d heartbeats over 10 periods, want ~10", n)
	}
}

func TestNoHeartbeatsWhenAlone(t *testing.T) {
	h := harness(t)
	h.InstallView(h.Self())
	h.Run(10 * period)
	if n := len(h.DownOfType(core.DCast)); n != 0 {
		t.Fatalf("singleton view emitted %d heartbeats", n)
	}
}

func TestBeatsAbsorbedDataPassedUp(t *testing.T) {
	h := harness(t)
	peer := layertest.ID("peer", 1)
	h.InstallView(h.Self(), peer)
	beat(h, peer)
	if n := len(h.UpOfType(core.UCast)); n != 0 {
		t.Fatalf("heartbeat leaked above the layer (%d upcalls)", n)
	}
	// A data cast round-trips: the kind byte pushed on the way down is
	// popped on the way up and the payload survives.
	h.InjectDown(&core.Event{Type: core.DCast, Msg: message.New([]byte("payload"))})
	down := h.DownOfType(core.DCast)
	if len(down) == 0 {
		t.Fatal("data cast did not reach the wire")
	}
	h.InjectUp(&core.Event{Type: core.UCast, Msg: down[len(down)-1].Msg.Clone(), Source: peer})
	up := h.UpOfType(core.UCast)
	if len(up) != 1 || string(up[0].Msg.Body()) != "payload" {
		t.Fatalf("data did not round-trip: %v", up)
	}
}

func TestSilentPeerSuspected(t *testing.T) {
	h := harness(t, hbeat.WithMaxTimeout(4*period))
	peer := layertest.ID("peer", 1)
	h.InstallView(h.Self(), peer)
	// Feed a few regular beats so the estimator converges...
	for i := 0; i < 5; i++ {
		h.Run(period)
		beat(h, peer)
	}
	if n := len(h.UpOfType(core.UProblem)); n != 0 {
		t.Fatalf("suspected a live peer (%d PROBLEMs)", n)
	}
	// ...then go silent. With mean≈period and the 4·period ceiling the
	// accusation must land within ~5 periods.
	h.Run(8 * period)
	probs := h.UpOfType(core.UProblem)
	if len(probs) != 1 {
		t.Fatalf("got %d PROBLEM upcalls, want exactly 1", len(probs))
	}
	if probs[0].Source != peer {
		t.Fatalf("suspected %v, want %v", probs[0].Source, peer)
	}
}

func TestSpeakingAgainRearmsSuspicion(t *testing.T) {
	h := harness(t, hbeat.WithMaxTimeout(3*period))
	peer := layertest.ID("peer", 1)
	h.InstallView(h.Self(), peer)
	h.Run(10 * period) // first suspicion
	if n := len(h.UpOfType(core.UProblem)); n != 1 {
		t.Fatalf("first silence: %d PROBLEMs, want 1", n)
	}
	beat(h, peer)      // the suspect speaks — re-armed
	h.Run(10 * period) // second silence
	if n := len(h.UpOfType(core.UProblem)); n != 2 {
		t.Fatalf("after re-arm + second silence: %d PROBLEMs, want 2", n)
	}
}

func TestViewChangeForgetsRemovedAndGracesReadmitted(t *testing.T) {
	h := harness(t, hbeat.WithMaxTimeout(3*period))
	peer := layertest.ID("peer", 1)
	h.InstallView(h.Self(), peer)
	h.Run(10 * period) // suspect peer
	if n := len(h.UpOfType(core.UProblem)); n != 1 {
		t.Fatalf("setup: %d PROBLEMs, want 1", n)
	}
	// Membership removes the suspect...
	h.InstallView(h.Self())
	h.Run(10 * period)
	if n := len(h.UpOfType(core.UProblem)); n != 1 {
		t.Fatalf("removed peer accused again: %d PROBLEMs", n)
	}
	// ...then re-admits it: the detector starts clean, with the full
	// grace ceiling before any fresh accusation.
	h.InstallView(h.Self(), peer)
	h.Run(2 * period)
	if n := len(h.UpOfType(core.UProblem)); n != 1 {
		t.Fatalf("re-admitted peer accused before grace expired: %d PROBLEMs", n)
	}
	h.Run(10 * period) // still silent — now a fresh verdict is due
	if n := len(h.UpOfType(core.UProblem)); n != 2 {
		t.Fatalf("re-admitted silent peer never re-suspected: %d PROBLEMs", n)
	}
}

func TestAdaptiveTimeoutTracksJitter(t *testing.T) {
	steady := harness(t, hbeat.WithMaxTimeout(100*period))
	jittery := harness(t, hbeat.WithMaxTimeout(100*period))
	peer := layertest.ID("peer", 1)
	steady.InstallView(steady.Self(), peer)
	jittery.InstallView(jittery.Self(), peer)
	for i := 0; i < 20; i++ {
		steady.Run(period)
		beat(steady, peer)
		// Alternate short/long gaps: same count, higher deviation.
		if i%2 == 0 {
			jittery.Run(period / 2)
		} else {
			jittery.Run(2 * period)
		}
		beat(jittery, peer)
	}
	layerOf := func(h *layertest.Harness) *hbeat.Hbeat {
		var l *hbeat.Hbeat
		h.EP.Do(func() { l = h.G.Stack().Focus("HBEAT").(*hbeat.Hbeat) })
		return l
	}
	st, jt := layerOf(steady).Timeout(peer), layerOf(jittery).Timeout(peer)
	if jt <= st {
		t.Fatalf("jittery timeout %v not above steady %v", jt, st)
	}
}

// TestTimeoutClampedToFloorAndCeiling: however regular or slow a peer's
// arrivals, the suspicion timeout stays within [MinTimeout, MaxTimeout].
func TestTimeoutClampedToFloorAndCeiling(t *testing.T) {
	for _, tc := range []struct {
		name string
		gap  time.Duration // between arrivals
		want time.Duration
	}{
		{"regular arrivals hit the floor", period, 4 * period},
		{"slow arrivals hit the ceiling", 30 * period, 20 * period},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, hb := phiHarness(t, hbeat.WithMinTimeout(4*period), hbeat.WithMaxTimeout(20*period))
			peer := layertest.ID("peer", 1)
			h.InstallView(h.Self(), peer)
			for i := 0; i < 8; i++ {
				h.Run(tc.gap)
				beat(h, peer)
			}
			if got := hb.Timeout(peer); got != tc.want {
				t.Fatalf("timeout %v, want %v", got, tc.want)
			}
		})
	}
}

func TestDestroyCancelsTicker(t *testing.T) {
	h := harness(t)
	peer := layertest.ID("peer", 1)
	h.InstallView(h.Self(), peer)
	h.Run(2 * period)
	h.EP.Destroy()
	before := len(h.DownOfType(core.DCast))
	h.Run(10 * period)
	if after := len(h.DownOfType(core.DCast)); after != before {
		t.Fatalf("destroyed layer kept beating: %d -> %d", before, after)
	}
}

// phiHarness is harness() plus a handle on the layer instance, so
// tests can read the estimator directly.
func phiHarness(t *testing.T, opts ...hbeat.Option) (*layertest.Harness, *hbeat.Hbeat) {
	t.Helper()
	opts = append([]hbeat.Option{hbeat.WithPeriod(period)}, opts...)
	var hb *hbeat.Hbeat
	h := layertest.New(t, func() core.Layer {
		l := hbeat.NewWith(opts...)()
		hb = l.(*hbeat.Hbeat)
		return l
	})
	return h, hb
}

func TestPhiGrowsMonotonicallyWithSilence(t *testing.T) {
	h, hb := phiHarness(t)
	peer := layertest.ID("peer", 1)
	h.InstallView(h.Self(), peer)
	for i := 0; i < 8; i++ {
		h.Run(period)
		beat(h, peer)
	}
	// φ right after an arrival must be small; every step of extra
	// silence must not decrease it; and a long silence must score
	// clearly suspicious.
	prev := hb.Phi(peer)
	if prev > 1 {
		t.Fatalf("φ=%.2f immediately after an arrival, want <1", prev)
	}
	for i := 0; i < 12; i++ {
		h.Run(period / 2)
		phi := hb.Phi(peer)
		if phi < prev {
			t.Fatalf("φ decreased with silence: %.3f -> %.3f at step %d", prev, phi, i)
		}
		prev = phi
	}
	if prev < 8 {
		t.Fatalf("φ=%.2f after 6 periods of silence, want ≥8", prev)
	}
}

func TestSuspectUpcallsBandRateLimitAndRetraction(t *testing.T) {
	h := harness(t, hbeat.WithSuspectUpcalls())
	peer := layertest.ID("peer", 1)
	h.InstallView(h.Self(), peer)
	for i := 0; i < 10; i++ {
		h.Run(period)
		beat(h, peer)
	}
	if got := len(h.UpOfType(core.USuspect)); got != 0 {
		t.Fatalf("%d SUSPECT upcalls while the peer is healthy, want 0", got)
	}

	// Total silence: φ grows, bands cross.
	h.Run(20 * period)
	sus := h.UpOfType(core.USuspect)
	if len(sus) == 0 {
		t.Fatal("no SUSPECT upcall after long silence")
	}
	if len(sus) > 4 { // the four φ bands
		t.Fatalf("%d SUSPECT upcalls for one silence, want at most one per band", len(sus))
	}
	for i, ev := range sus {
		if ev.Source != peer {
			t.Fatalf("SUSPECT subject = %v, want %v", ev.Source, peer)
		}
		if i > 0 && ev.Phi < sus[i-1].Phi {
			t.Fatalf("φ not monotone within one silence: %v then %v", sus[i-1].Phi, ev.Phi)
		}
	}

	// Monotone within a band: further silence emits nothing new.
	n := len(sus)
	h.Run(20 * period)
	if got := len(h.UpOfType(core.USuspect)); got != n {
		t.Fatalf("re-emission within a band: %d upcalls grew to %d", n, got)
	}

	// The peer speaks again: exactly one retraction, carrying the lower φ.
	beat(h, peer)
	h.Run(3 * period)
	sus = h.UpOfType(core.USuspect)
	if len(sus) != n+1 {
		t.Fatalf("upcalls after the peer spoke = %d, want %d (one retraction)", len(sus), n+1)
	}
	if last := sus[len(sus)-1]; last.Phi >= sus[n-1].Phi {
		t.Fatalf("retraction φ %v not below the suspect φ %v", last.Phi, sus[n-1].Phi)
	}
	if st := h.G.Focus("HBEAT").(*hbeat.Hbeat).Stats(); st.Suspects != n || st.Retractions != 1 {
		t.Fatalf("Stats Suspects %d, Retractions %d; want the %d rises and 1 fall upcalled", st.Suspects, st.Retractions, n)
	}
}

// TestKeptSuspectIsRetracted: a suspected peer that membership keeps in
// the next view starts clean, and its SUSPECT band is retracted at the
// next sweep. Before, the fresh state forgot the band, so no retraction
// ever followed and listeners (ADAPT) held φ=30 for a current member.
func TestKeptSuspectIsRetracted(t *testing.T) {
	h := harness(t, hbeat.WithMaxTimeout(3*period), hbeat.WithSuspectUpcalls())
	peer, other := layertest.ID("peer", 1), layertest.ID("other", 2)
	h.InstallView(h.Self(), peer, other)
	for i := 0; i < 5; i++ {
		h.Run(period)
		beat(h, peer)
		beat(h, other)
	}
	// peer goes silent past the ceiling; other keeps beating.
	for i := 0; i < 6; i++ {
		h.Run(period)
		beat(h, other)
	}
	if n := len(h.UpOfType(core.UProblem)); n != 1 {
		t.Fatalf("setup: %d PROBLEMs, want 1", n)
	}
	sus := h.UpOfType(core.USuspect)
	if len(sus) == 0 || sus[len(sus)-1].Source != peer {
		t.Fatalf("setup: SUSPECT upcalls %v, want peer suspected", sus)
	}
	n := len(sus)

	// The next view keeps peer, which beats again.
	h.InstallView(h.Self(), peer, other)
	for i := 0; i < 10; i++ {
		h.Run(period)
		beat(h, peer)
		beat(h, other)
	}
	sus = h.UpOfType(core.USuspect)
	if len(sus) != n+1 {
		t.Fatalf("%d SUSPECT upcalls after the kept peer spoke, want 1 (the retraction)", len(sus)-n)
	}
	if r := sus[n]; r.Source != peer || r.Phi >= 1 {
		t.Fatalf("retraction %v φ=%v, want peer below band 1", r.Source, r.Phi)
	}
}
