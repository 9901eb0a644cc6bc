package integration

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/message"
	"horus/internal/netsim"
)

// TestLeaveDuringFlush has a member leave politely while a crash flush
// is in progress: the machinery must fold the departure into the view
// change(s) and converge.
func TestLeaveDuringFlush(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 443, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps, groups, cols := buildGroup(t, net, 4, vsStack)

	base := net.Now()
	net.At(base, func() { net.Crash(eps[3].ID()) })
	// While d's crash is being detected/flushed, c leaves voluntarily.
	net.At(base+140*time.Millisecond, func() { groups[2].Leave() })
	net.RunFor(8 * time.Second)

	for _, c := range cols[:2] {
		v := c.lastView()
		if v == nil || v.Size() != 2 {
			t.Fatalf("%s: final view %v, want {a,b}", c.name, v)
		}
		if v.Contains(eps[2].ID()) || v.Contains(eps[3].ID()) {
			t.Fatalf("%s: departed/crashed member still present: %v", c.name, v)
		}
	}
	if cols[0].lastView().ID != cols[1].lastView().ID {
		t.Fatalf("survivors disagree: %v vs %v", cols[0].lastView(), cols[1].lastView())
	}
	// Group still works.
	net.At(net.Now(), func() { groups[0].Cast(message.New([]byte("onward"))) })
	net.RunFor(time.Second)
	for _, c := range cols[:2] {
		got := c.casts[c.lastView().ID.Seq]
		if len(got) != 1 || got[0] != "onward" {
			t.Errorf("%s: post-change deliveries %v", c.name, got)
		}
	}
}

// TestDestroyDuringTraffic tears an endpoint down in mid-stream; the
// others must treat it as a crash and move on, and the destroyed
// endpoint's handler must see DESTROY then EXIT.
func TestDestroyDuringTraffic(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 449, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	eps, groups, cols := buildGroup(t, net, 3, vsStack)

	base := net.Now()
	for i := 0; i < 10; i++ {
		i := i
		net.At(base+time.Duration(i)*5*time.Millisecond, func() {
			groups[i%3].Cast(message.New([]byte(fmt.Sprintf("m%d", i))))
		})
	}
	net.At(base+25*time.Millisecond, func() { eps[2].Destroy() })
	net.RunFor(8 * time.Second)

	for _, c := range cols[:2] {
		v := c.lastView()
		if v == nil || v.Size() != 2 {
			t.Fatalf("%s: final view %v after destroy, want 2", c.name, v)
		}
	}
	// The destroyed member's handler sees DESTROY and EXIT (checked in
	// core's unit tests); here we require that survivors converge.
}
