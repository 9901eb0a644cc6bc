package chaos

import (
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/netsim"
)

// TestSwitchShrunkSchedules replays three SWITCH schedules, shrunk from
// 1000-seed sweeps, on which members once swapped segments each at its
// own instant and repaired the skew afterwards:
//
//   - 553: a recovered incarnation committed a switch alone in its
//     singleton view while the others committed another, and the merge
//     kept both (switch-agreement, switch-total-order);
//   - 257: both sides of a partition committed a different switch, and
//     the heal kept both (switch-agreement);
//   - 495: casts stamped by a segment one side had retired were
//     delivered only at their sender (view-agreement).
//
// A switch is now a view change whose segment the view's oldest member
// names, so each must run clean.
func TestSwitchShrunkSchedules(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		members int
		stack   func() core.StackSpec
		sched   Schedule
	}{
		{"553", 553, 4, SwitchStack, Schedule{
			{At: 207636256, Kind: KindCrash, A: 2},
			{At: 852634696, Kind: KindSwitch, A: 1, Target: "TOTAL"},
			{At: 1200063384, Kind: KindRecover, A: 2},
			{At: 1204855801, Kind: KindSwitch, A: 2, Target: "ADAPT"},
			{At: 5 * time.Second, Kind: KindHeal},
		}},
		{"257", 257, 6, SwitchStack, Schedule{
			{At: 1282444410, Kind: KindPartition, Sides: [][]int{{4, 5}, {0, 1, 2, 3}}},
			{At: 1588986705, Kind: KindSwitch, A: 5, Target: "ADAPT"},
			{At: 1615829778, Kind: KindSwitch, A: 0, Target: "TOTAL"},
			{At: 5 * time.Second, Kind: KindHeal},
		}},
		{"495", 495, 6, PrimarySwitchStack(6), Schedule{
			{At: 8221301, Kind: KindSetHost, A: 1, Host: netsim.Host{EgressBudget: 8192, EgressQueue: 1024}},
			{At: 301277226, Kind: KindSwitch, A: 2, Target: "TOTAL"},
			{At: 346498085, Kind: KindPartition, Sides: [][]int{{1, 2, 3, 4, 5}, {0}}},
			{At: 505009384, Kind: KindCrash, A: 0},
			{At: 1023051653, Kind: KindHeal},
			{At: 1175420637, Kind: KindRecover, A: 0},
			{At: 1361328438, Kind: KindClearHost, A: 1},
			{At: 1394365062, Kind: KindSwitch, A: 4, Target: "ADAPT"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(Config{Seed: tc.seed, Members: tc.members, Link: soakLink, Stack: tc.stack})
			defer c.Close()
			if err := c.Form(6 * time.Second); err != nil {
				t.Fatalf("formation: %v", err)
			}
			c.Apply(tc.sched)
			c.Run(tc.sched.End() + 500*time.Millisecond)
			if err := c.Settle(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			for _, e := range c.Check() {
				t.Error(e)
			}
		})
	}
}
