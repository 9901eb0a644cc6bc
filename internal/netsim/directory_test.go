package netsim_test

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/message"
	"horus/internal/netsim"
)

// The network's directory (core.Directory): every birth it assigned
// names its endpoint, after a crash or a detach as well, so a packet
// in flight still resolves; a birth it never assigned names nothing.
func TestDirectoryContract(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 1})
	a, b, c := net.NewEndpoint("a"), net.NewEndpoint("b"), net.NewEndpoint("c")
	net.Crash(b.ID())
	net.Detach(c.ID())
	for _, tc := range []struct {
		name  string
		birth uint64
		want  core.EndpointID
		ok    bool
	}{
		{"live", a.ID().Birth, a.ID(), true},
		{"crashed", b.ID().Birth, b.ID(), true},
		{"detached", c.ID().Birth, c.ID(), true},
		{"the zero ID's", 0, core.EndpointID{}, false},
		{"never assigned", c.ID().Birth + 1, core.EndpointID{}, false},
	} {
		if got, ok := net.Named(tc.birth); got != tc.want || ok != tc.ok {
			t.Errorf("%s: Named(%d) = %v, %v; want %v, %v", tc.name, tc.birth, got, ok, tc.want, tc.ok)
		}
	}
	if d := net.NewEndpoint("d"); d.ID().Birth <= c.ID().Birth {
		t.Errorf("birth %d assigned again after %v", d.ID().Birth, c.ID())
	}
}

// A packet whose source is a birth alone that neither COM's view nor
// the network names is line damage: the endpoint counts it malformed
// and delivers nothing under an invented identity.
func TestUnnamedBirthIsMalformed(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 1})
	ep := net.NewEndpoint("a")
	delivered := 0
	if _, err := ep.Join("g", core.StackSpec{com.New}, func(ev *core.Event) {
		if ev.Type == core.UCast {
			delivered++
		}
	}); err != nil {
		t.Fatal(err)
	}
	m := message.New([]byte("x"))
	m.PushUint8(1)      // COM's kindCast
	m.PushUint(40 << 1) // COM's source: a bare birth 40, which this network never assigned
	ep.Deliver("g", m.Marshal())
	net.RunFor(0)
	if ep.Malformed() != 1 || delivered != 0 {
		t.Fatalf("malformed %d, delivered %d; want 1 and 0", ep.Malformed(), delivered)
	}
}
