package hbeat_test

import (
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/hbeat"
	"horus/internal/layertest"
)

// lowerHeaders is what the chaos stack pushes under HBEAT on a beat:
// NAK's [kind][seq] and COM's [source][kind], for an endpoint with a
// five-character site name and integers below 128.
const lowerHeaders = 2 + (1 + 1 + 5 + 1)

// tickTransport holds the one timer an endpoint with HBEAT alone arms,
// and fires it on demand; its SetTimer and Send allocate nothing, so
// what a tick allocates is the stack's own.
type tickTransport struct {
	now  time.Duration
	next time.Duration
	fire func()
}

func (*tickTransport) Send(core.EndpointID, core.GroupAddr, []core.EndpointID, []byte) {}
func (tr *tickTransport) Now() time.Duration                                           { return tr.now }
func (tr *tickTransport) SetTimer(d time.Duration, fn func()) (cancel func()) {
	tr.next, tr.fire = tr.now+d, fn
	return func() {}
}

// tick advances to the armed deadline and fires it.
func (tr *tickTransport) tick() { tr.now = tr.next; tr.fire() }

// TestBeatAllocs pins a heartbeat tick at no allocation in core: the
// beat is built in a record lent for the tick's run
// (core.Context.NewDowncall), whose header storage, carved from the
// endpoint's slab, takes the headers the layers beneath push, and the
// slab's chunk is a share of an allocation too small to count. Re-arming
// the ticker costs the core nothing (netsim arms it by handle, at no
// allocation either). A tick cost one allocation, the beat's record,
// while every record a layer built was left to the collector.
func TestBeatAllocs(t *testing.T) {
	tr := new(tickTransport)
	ep := core.NewEndpoint(layertest.ID("self", 1), tr)
	g, err := ep.Join("g", core.StackSpec{hbeat.NewWith(hbeat.WithPeriod(period)), layertest.Below(lowerHeaders)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.InstallView(core.NewView(core.ViewID{Seq: 1, Coord: ep.ID()}, "g", []core.EndpointID{ep.ID(), layertest.ID("peer", 2)}))
	h := g.Focus("HBEAT").(*hbeat.Hbeat)
	if allocs := testing.AllocsPerRun(100, tr.tick); allocs != 0 {
		t.Errorf("a heartbeat tick: %v allocations, want 0", allocs)
	}
	if got := h.Stats().BeatsSent; got != 101 {
		t.Fatalf("%d beats sent over 101 ticks", got)
	}
}
