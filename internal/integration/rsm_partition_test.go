package integration

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/frag"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/merge"
	"horus/internal/layers/nak"
	"horus/internal/layers/total"
	"horus/internal/netsim"
	"horus/internal/tools"
)

// primaryRSMStack: total order + primary-partition membership + MERGE
// healing — the configuration a replicated state machine should run on
// (split-brain-free).
func primaryRSMStack(totalMembers int) core.StackSpec {
	return core.StackSpec{
		total.NewWith(total.WithRequestRetry(50 * time.Millisecond)),
		merge.New,
		mbrship.NewWith(
			mbrship.WithGossipPeriod(40*time.Millisecond),
			mbrship.WithFlushTimeout(500*time.Millisecond),
			mbrship.WithPrimaryPartition(totalMembers),
		),
		frag.NewWithSize(1024),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithNakResend(15*time.Millisecond),
			nak.WithSuspectAfter(6),
		),
		com.New,
	}
}

type rsmNode struct {
	name string
	log  []string
	rsm  *tools.RSM
	g    *core.Group
	view *core.View
}

func newRSMNode(t *testing.T, net *netsim.Network, name string, totalMembers int, creator bool) *rsmNode {
	t.Helper()
	n := &rsmNode{name: name}
	apply := func(cmd []byte) { n.log = append(n.log, string(cmd)) }
	snapshot := func() []byte { return []byte(strings.Join(n.log, "\n")) }
	restore := func(state []byte) {
		n.log = nil
		for _, c := range strings.Split(string(state), "\n") {
			if c != "" {
				n.log = append(n.log, c)
			}
		}
	}
	n.rsm = tools.NewRSM(apply, snapshot, restore)
	ep := net.NewEndpoint(name)
	inner := n.rsm.Handler()
	g, err := ep.Join("rsm", primaryRSMStack(totalMembers), func(ev *core.Event) {
		if ev.Type == core.UView {
			n.view = ev.View
		}
		inner(ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	n.g = g
	n.rsm.Bind(g)
	if creator {
		n.rsm.Bootstrap()
	}
	return n
}

// TestRSMSurvivesPartitionWithoutSplitBrain is the full §9 story: a
// 5-replica state machine partitions 3|2; the primary side commits,
// the minority blocks (its submissions defer); the heal resynchronizes
// the minority by state transfer and replays its deferred submissions.
// Every replica ends with the identical log and no command is lost.
func TestRSMSurvivesPartitionWithoutSplitBrain(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 401, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	const n = 5
	nodes := make([]*rsmNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = newRSMNode(t, net, fmt.Sprintf("r%d", i), n, i == 0)
	}
	// MERGE forms the group automatically.
	net.RunFor(6 * time.Second)
	for _, nd := range nodes {
		if nd.view == nil || nd.view.Size() != n {
			t.Fatalf("%s: formation failed: %v", nd.name, nd.view)
		}
	}

	// Pre-partition traffic.
	base := net.Now()
	for i := 0; i < 5; i++ {
		i := i
		net.At(base+time.Duration(i)*10*time.Millisecond, func() {
			nodes[i%n].rsm.Propose([]byte(fmt.Sprintf("pre-%d", i)))
		})
	}
	net.RunFor(time.Second)

	// Partition 3 | 2.
	net.Partition(
		[]core.EndpointID{nodes[0].g.Endpoint().ID(), nodes[1].g.Endpoint().ID(), nodes[2].g.Endpoint().ID()},
		[]core.EndpointID{nodes[3].g.Endpoint().ID(), nodes[4].g.Endpoint().ID()},
	)
	net.RunFor(3 * time.Second)

	// Majority commits; minority submits (deferred, not lost).
	net.At(net.Now(), func() {
		nodes[1].rsm.Propose([]byte("majority-commit"))
		nodes[4].rsm.Propose([]byte("minority-wish"))
	})
	net.RunFor(time.Second)

	majLen := len(nodes[0].log)
	if majLen != 6 { // 5 pre + 1 majority-commit
		t.Fatalf("majority log length %d, want 6: %v", majLen, nodes[0].log)
	}
	for _, nd := range nodes[3:] {
		for _, c := range nd.log {
			if c == "minority-wish" {
				t.Fatalf("%s: minority committed during the partition (split brain)", nd.name)
			}
		}
	}

	// Heal: MERGE re-forms the group; the minority resyncs by state
	// transfer and its deferred proposal finally commits.
	net.Heal()
	net.RunFor(10 * time.Second)

	for _, nd := range nodes {
		if nd.view == nil || nd.view.Size() != n {
			t.Fatalf("%s: heal failed: %v", nd.name, nd.view)
		}
		if !nd.rsm.Synced() {
			t.Fatalf("%s: not synced after heal", nd.name)
		}
	}
	ref := strings.Join(nodes[0].log, ";")
	for _, nd := range nodes[1:] {
		if got := strings.Join(nd.log, ";"); got != ref {
			t.Fatalf("logs diverge:\n%s: %s\n%s: %s", nodes[0].name, ref, nd.name, got)
		}
	}
	if !strings.Contains(ref, "majority-commit") || !strings.Contains(ref, "minority-wish") {
		t.Fatalf("history incomplete: %s", ref)
	}
	// The majority's partition-era commit precedes the minority's
	// replayed wish.
	if strings.Index(ref, "majority-commit") > strings.Index(ref, "minority-wish") {
		t.Fatalf("replayed minority proposal jumped ahead of committed history: %s", ref)
	}
}
