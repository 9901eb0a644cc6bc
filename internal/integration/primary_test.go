package integration

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/merge"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
)

// primaryStack runs MBRSHIP with the Isis-style primary-partition
// restriction over a 5-member group (paper §9).
func primaryStack(total int) func() core.StackSpec {
	return func() core.StackSpec {
		return core.StackSpec{
			merge.New,
			mbrship.NewWith(
				mbrship.WithGossipPeriod(40*time.Millisecond),
				mbrship.WithFlushTimeout(500*time.Millisecond),
				mbrship.WithPrimaryPartition(total),
			),
			nak.NewWith(
				nak.WithStatusPeriod(20*time.Millisecond),
				nak.WithNakResend(15*time.Millisecond),
				nak.WithSuspectAfter(6),
			),
			com.New,
		}
	}
}

// primCollector also tracks the Primary flag of views.
type primCollector struct {
	*vsCollector
	primary map[uint64]bool
}

func TestPrimaryPartitionRestrictsProgress(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 171, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	const n = 5
	eps := make([]*core.Endpoint, n)
	groups := make([]*core.Group, n)
	cols := make([]*primCollector, n)
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("%c", 'a'+i)
		cols[i] = &primCollector{vsCollector: newVSCollector(site), primary: map[uint64]bool{}}
		eps[i] = net.NewEndpoint(site)
		inner := cols[i].handler()
		g, err := eps[i].Join("grp", primaryStack(n)(), func(ev *core.Event) {
			if ev.Type == core.UView {
				cols[i].primary[ev.View.ID.Seq] = ev.Primary
			}
			inner(ev)
		})
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = g
	}
	// MERGE forms the full group automatically.
	net.RunFor(5 * time.Second)
	for _, c := range cols {
		v := c.lastView()
		if v == nil || v.Size() != n {
			t.Fatalf("%s: formation failed: %v", c.name, v)
		}
		if !c.primary[v.ID.Seq] {
			t.Fatalf("%s: full view not marked primary", c.name)
		}
	}

	// Partition 3 | 2: the majority side keeps working, the minority
	// side installs non-primary views and defers its casts.
	net.Partition(
		[]core.EndpointID{eps[0].ID(), eps[1].ID(), eps[2].ID()},
		[]core.EndpointID{eps[3].ID(), eps[4].ID()},
	)
	net.RunFor(3 * time.Second)

	for i, c := range cols {
		v := c.lastView()
		wantSize := 3
		wantPrimary := true
		if i >= 3 {
			wantSize = 2
			wantPrimary = false
		}
		if v == nil || v.Size() != wantSize {
			t.Fatalf("%s: view %v under partition, want %d members", c.name, v, wantSize)
		}
		if c.primary[v.ID.Seq] != wantPrimary {
			t.Errorf("%s: Primary=%v, want %v", c.name, c.primary[v.ID.Seq], wantPrimary)
		}
	}

	// Majority progresses; minority's cast stays deferred.
	majSeq := cols[0].lastView().ID.Seq
	net.At(net.Now(), func() {
		groups[0].Cast(message.New([]byte("majority-update")))
		groups[3].Cast(message.New([]byte("minority-update")))
	})
	net.RunFor(time.Second)
	for _, c := range cols[:3] {
		got := c.casts[majSeq]
		if len(got) != 1 || got[0] != "majority-update" {
			t.Errorf("%s: majority deliveries %v", c.name, got)
		}
	}
	for _, c := range cols[3:] {
		for seq, msgs := range c.casts {
			for _, p := range msgs {
				if p == "minority-update" {
					t.Errorf("%s: minority made progress (view %d): %v", c.name, seq, msgs)
				}
			}
		}
	}

	// Healing restores a primary view everywhere, and the deferred
	// minority cast finally goes out.
	net.Heal()
	net.RunFor(8 * time.Second)
	for _, c := range cols {
		v := c.lastView()
		if v == nil || v.Size() != n {
			t.Fatalf("%s: heal failed: %v", c.name, v)
		}
		if !c.primary[v.ID.Seq] {
			t.Errorf("%s: healed view not primary", c.name)
		}
	}
	finalSeq := cols[0].lastView().ID.Seq
	for _, c := range cols {
		got := c.casts[finalSeq]
		found := false
		for _, p := range got {
			if p == "minority-update" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: deferred minority cast never delivered after heal: %v", c.name, got)
		}
	}
}
