package chaosnet_test

import (
	"testing"
	"time"

	"horus/internal/chaos"
	"horus/internal/chaosnet"
	"horus/internal/netsim"
)

// The UDP fabric must satisfy the chaos transport abstraction without
// chaosnet importing chaos — structural typing keeps the dependency
// arrow pointing one way.
var _ chaos.Fabric = (*chaosnet.Fabric)(nil)

// TestClusterOverUDPSmoke is the real-socket end-to-end: a cluster
// forms over loopback UDP through the lossy proxies, survives a crash
// and recovery, re-converges, and keeps every virtual-synchrony
// invariant. Wall-clock deadlines are generous — CI machines stall.
func TestClusterOverUDPSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock UDP smoke")
	}
	link := netsim.Link{Delay: time.Millisecond, Jitter: 2 * time.Millisecond, LossRate: 0.02}
	c := chaos.NewCluster(chaos.Config{
		Seed: 1, Members: 3, Link: link,
		Fabric: chaosnet.New(chaosnet.Config{Seed: 1, DefaultLink: link}),
	})
	if err := c.Form(15 * time.Second); err != nil {
		c.Close()
		t.Fatal(err)
	}
	c.Apply(chaos.Schedule{
		{At: 100 * time.Millisecond, Kind: chaos.KindCrash, A: 2},
		{At: 900 * time.Millisecond, Kind: chaos.KindRecover, A: 2},
	})
	c.Run(1200 * time.Millisecond)
	err := c.Settle(15 * time.Second)
	c.Close() // quiesce before reading histories
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Check() {
		t.Error(e)
	}
	if len(c.Histories) != 4 {
		t.Fatalf("expected 4 incarnations (3 boots + 1 recover), got %d", len(c.Histories))
	}
	f := c.Fabric().(*chaosnet.Fabric)
	if st := f.Stats(); st.Delivered == 0 || st.Bytes == 0 {
		t.Fatalf("proxy forwarded %d frames of %d bytes — the cluster cannot have formed through it", st.Delivered, st.Bytes)
	}
}

// TestChaosSeedOverUDP runs one polite and one harsh seed of the
// canonical chaos recipe (chaos.RunSeed at the horus-chaos defaults)
// over the UDP proxies, with the wall-clock deadlines RunSeed gives a
// supplied fabric, and requires convergence and every invariant. Each seed is
// pinned for the flow incidents its schedule draws, and the test checks
// them in Generate's output, so a generator change cannot quietly leave
// a pin exercising nothing but loss. Wider UDP sweeps are horus-chaos
// runs: 12 polite and 13 harsh seeds in CI, 100 of each nightly.
func TestChaosSeedOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock UDP soak")
	}
	pins := []struct {
		name  string
		seed  int64
		harsh bool
		draws []string // incident notes the schedule must contain
	}{
		{"polite", 2, false, []string{"reorder burst", "egress squeeze"}},
		{"harsh", 11, true, []string{"degrade squeeze"}},
	}
	for _, pin := range pins {
		t.Run(pin.name, func(t *testing.T) {
			cfg := chaos.GenConfig{Members: 4, Horizon: 5 * time.Second, Incidents: 7, Harsh: pin.harsh}
			sched := chaos.Generate(pin.seed, cfg)
			drawn := map[string]bool{}
			for _, a := range sched {
				drawn[a.Note] = true
			}
			for _, note := range pin.draws {
				if !drawn[note] {
					t.Fatalf("seed %d no longer draws a %q incident; pick another seed:\n%s", pin.seed, note, sched)
				}
			}

			var f *chaosnet.Fabric
			c, err := chaos.RunSeed(pin.seed, cfg, func(seed int64, link netsim.Link) chaos.Fabric {
				f = chaosnet.New(chaosnet.Config{Seed: seed, DefaultLink: link})
				return f
			})
			if err != nil {
				t.Fatalf("seed %d: %v\nledger %+v", pin.seed, err, f.Stats())
			}
			for _, e := range c.Check() {
				t.Errorf("seed %d: %v", pin.seed, e)
			}
		})
	}
}
