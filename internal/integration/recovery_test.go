package integration

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/mlog"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
)

// TestTotalCrashRecoveryViaLog is the Figure 1 "logging: tolerance of
// total crash failures" scenario: every member logs deliveries through
// MLOG; the whole group crashes; a new incarnation replays a
// survivor's log and resumes with the full application state.
func TestTotalCrashRecoveryViaLog(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 163, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	stores := []*mlog.MemStore{mlog.NewMemStore(), mlog.NewMemStore()}
	mk := func(store *mlog.MemStore) core.StackSpec {
		return core.StackSpec{
			mlog.New(store),
			mbrship.NewWith(
				mbrship.WithGossipPeriod(40*time.Millisecond),
				mbrship.WithFlushTimeout(500*time.Millisecond),
			),
			nak.NewWith(nak.WithStatusPeriod(20*time.Millisecond), nak.WithSuspectAfter(6)),
			com.New,
		}
	}
	epA := net.NewEndpoint("a")
	epB := net.NewEndpoint("b")
	ca, cb := newVSCollector("a"), newVSCollector("b")
	ga, err := epA.Join("grp", mk(stores[0]), ca.handler())
	if err != nil {
		t.Fatal(err)
	}
	gb, err := epB.Join("grp", mk(stores[1]), cb.handler())
	if err != nil {
		t.Fatal(err)
	}
	net.At(50*time.Millisecond, func() { gb.Merge(epA.ID()) })
	net.RunFor(time.Second)

	base := net.Now()
	for i := 0; i < 8; i++ {
		i := i
		net.At(base+time.Duration(i)*5*time.Millisecond, func() {
			ga.Cast(message.New([]byte(fmt.Sprintf("cmd%d", i))))
		})
	}
	net.RunFor(time.Second)

	// Total crash: both members die.
	net.Crash(epA.ID())
	net.Crash(epB.ID())
	net.RunFor(100 * time.Millisecond)

	// Recovery: replay b's durable log into a fresh state machine.
	var replayed []string
	mlog.Replay(stores[1], func(ev *core.Event) {
		if ev.Type == core.UCast {
			replayed = append(replayed, string(ev.Msg.Body()))
		}
	})
	if len(replayed) != 8 {
		t.Fatalf("replayed %d commands, want 8: %v", len(replayed), replayed)
	}
	for i, c := range replayed {
		if c != fmt.Sprintf("cmd%d", i) {
			t.Fatalf("replay order broken at %d: %v", i, replayed)
		}
	}
}
