package chksum_test

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layers/chksum"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/netsim"
)

func TestChecksumRoundTrip(t *testing.T) {
	h := layertest.New(t, chksum.New)
	h.InjectDown(core.NewCast(message.New([]byte("payload"))))

	sent := h.LastDown()
	if sent == nil || sent.Type != core.DCast {
		t.Fatalf("nothing sent: %v", sent)
	}
	if sent.Msg.HeaderLen() != 4 {
		t.Fatalf("checksum header = %d bytes, want 4", sent.Msg.HeaderLen())
	}

	// Echo the wire content back up: it must verify and deliver.
	h.InjectUp(&core.Event{Type: core.UCast, Msg: sent.Msg.Clone(), Source: layertest.ID("peer", 2)})
	got := h.LastUp()
	if got == nil || string(got.Msg.Body()) != "payload" {
		t.Fatalf("clean message not delivered: %v", got)
	}
}

func TestChecksumDropsGarbledBody(t *testing.T) {
	h := layertest.New(t, chksum.New)
	h.InjectDown(core.NewCast(message.New([]byte("payload"))))
	sent := h.LastDown().Msg.Clone()
	sent.Body()[0] ^= 0xFF

	h.InjectUp(&core.Event{Type: core.UCast, Msg: sent, Source: layertest.ID("peer", 2)})
	if got := h.UpOfType(core.UCast); len(got) != 0 {
		t.Fatalf("garbled message delivered: %v", got)
	}
	k := h.G.Focus("CHKSUM").(*chksum.Chksum)
	if k.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", k.Stats().Dropped)
	}
}

func TestChecksumDropsGarbledUpperHeader(t *testing.T) {
	h := layertest.New(t, chksum.New)
	m := message.New([]byte("payload"))
	m.PushUint32(42) // a header pushed by some layer above
	h.InjectDown(core.NewCast(m))
	sent := h.LastDown().Msg.Clone()
	sent.Pop(4)         // strip checksum
	sent.PushUint32(43) // corrupt the inner header...
	sentBad := sent.Clone()

	// Recompute nothing: re-push a stale checksum scenario by
	// reusing the original checksum over modified content.
	orig := h.LastDown().Msg.Clone()
	chk := orig.PopUint32()
	sentBad.PushUint32(chk)
	h.InjectUp(&core.Event{Type: core.UCast, Msg: sentBad, Source: layertest.ID("peer", 2)})
	if got := h.UpOfType(core.UCast); len(got) != 0 {
		t.Fatalf("message with corrupted inner header delivered: %v", got)
	}
}

// TestChecksumAllocs pins that checksumming allocates nothing in either
// direction: the CRC runs over the message's headers and body where
// they lie, not over a marshalled copy of them.
func TestChecksumAllocs(t *testing.T) {
	const runs = 100
	ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("self")
	sink := &layertest.Sink{}
	g, err := ep.Join("g", core.StackSpec{chksum.New, func() core.Layer { return sink }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := g.Focus("CHKSUM").(*chksum.Chksum)

	body := make([]byte, 64)
	out := core.NewCast(message.NewWithHeadroom(16, body))
	out.Msg.PushUint64(7) // a header from a layer above
	down := func() {
		g.Stack().Down(out)
		out.Msg.PopUint32() // the checksum, so the next run pushes it again
	}
	if allocs := testing.AllocsPerRun(runs, func() { ep.Do(down) }); allocs != 0 {
		t.Errorf("Down: %v allocations per message, want 0", allocs)
	}

	ep.Do(func() { g.Stack().Down(out) })
	wire := out.Msg.Marshal() // [checksum][the header above][body]
	var in message.Message
	ev := &core.Event{}
	up := func() {
		if err := in.Attach(wire); err != nil {
			t.Fatal(err)
		}
		*ev = core.Event{Type: core.UCast, Msg: &in, Source: layertest.ID("peer", 2)}
		g.Stack().Up(ev)
	}
	if allocs := testing.AllocsPerRun(runs, func() { ep.Do(up) }); allocs != 0 {
		t.Errorf("Up: %v allocations per message, want 0", allocs)
	}
	if st := k.Stats(); st.Verified != runs+1 || st.Dropped != 0 {
		t.Errorf("stats %+v: want every one of %d messages verified", st, runs+1)
	}
}

func TestChecksumPassesControlEvents(t *testing.T) {
	h := layertest.New(t, chksum.New)
	h.InjectUp(&core.Event{Type: core.UProblem, Source: layertest.ID("peer", 2)})
	if got := h.UpOfType(core.UProblem); len(got) != 1 {
		t.Fatalf("PROBLEM not passed through: %v", got)
	}
	h.InjectDown(&core.Event{Type: core.DLeave})
	if got := h.DownOfType(core.DLeave); len(got) != 1 {
		t.Fatalf("leave not passed through: %v", got)
	}
}
