package fc_test

import (
	"fmt"
	"testing"

	"horus/internal/core"
	"horus/internal/layers/fc"
	"horus/internal/layertest"
	"horus/internal/message"
)

func window4(t *testing.T) (*layertest.Harness, *fc.Fc, core.EndpointID) {
	t.Helper()
	h := layertest.New(t, fc.NewWithWindow(4))
	peer := layertest.ID("p", 2)
	h.InstallView(h.Self(), peer)
	layer := h.G.Focus("FC").(*fc.Fc)
	return h, layer, peer
}

func TestWindowBlocksAtCapacity(t *testing.T) {
	h, layer, _ := window4(t)
	for i := 0; i < 10; i++ {
		h.InjectDown(core.NewCast(message.New([]byte(fmt.Sprintf("m%d", i)))))
	}
	if got := len(h.DownOfType(core.DCast)); got != 4 {
		t.Fatalf("%d casts launched with window 4, want 4", got)
	}
	if layer.QueueLen() != 6 {
		t.Fatalf("queued = %d, want 6", layer.QueueLen())
	}
	if got := layer.Stats().Queued; got != 6 {
		t.Fatalf("Stats().Queued = %d, want 6", got)
	}
}

func TestCreditReleasesQueue(t *testing.T) {
	h, _, peer := window4(t)
	for i := 0; i < 10; i++ {
		h.InjectDown(core.NewCast(message.New([]byte{byte(i)})))
	}
	// The peer grants a cumulative window end of 8.
	credit := message.New(nil)
	credit.PushUint(8)
	credit.PushUint8(3) // kCredit
	h.InjectUp(&core.Event{Type: core.USend, Msg: credit, Source: peer})
	if got := len(h.DownOfType(core.DCast)); got != 8 {
		t.Fatalf("%d casts after credit to 8, want 8", got)
	}
	// FIFO must be preserved through the queue.
	for i, ev := range h.DownOfType(core.DCast) {
		if ev.Msg.Body()[0] != byte(i) {
			t.Fatalf("flow control reordered casts: %d at position %d", ev.Msg.Body()[0], i)
		}
	}
}

func TestReceiverGrantsCredit(t *testing.T) {
	h, _, peer := window4(t)
	// Receive 2 casts (half the window) from the peer: a credit grant
	// must go back.
	for i := 0; i < 2; i++ {
		m := message.New([]byte("in"))
		m.PushUint8(1) // kData
		h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
	}
	grants := h.DownOfType(core.DSend)
	if len(grants) == 0 {
		t.Fatal("no credit sent after receiving half a window")
	}
	g := grants[len(grants)-1]
	if len(g.Dests) != 1 || g.Dests[0] != peer {
		t.Fatalf("credit addressed to %v, want %v", g.Dests, peer)
	}
}

func TestViewChangeReopensWindow(t *testing.T) {
	h, layer, peer := window4(t)
	for i := 0; i < 8; i++ {
		h.InjectDown(core.NewCast(message.New([]byte{byte(i)})))
	}
	if layer.QueueLen() != 4 {
		t.Fatalf("queued = %d, want 4", layer.QueueLen())
	}
	// A view change resynchronizes: every member restarts with a full
	// window.
	v := core.NewView(core.ViewID{Seq: 2, Coord: h.Self()}, "test",
		[]core.EndpointID{h.Self(), peer})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v}})
	if got := len(h.DownOfType(core.DCast)); got != 8 {
		t.Fatalf("%d casts after view change, want 8", got)
	}
}

// grant injects a kCredit message from the given member with the given
// cumulative window end.
func grant(h *layertest.Harness, from core.EndpointID, end uint64) {
	m := message.New(nil)
	m.PushUint(end)
	m.PushUint8(3) // kCredit
	h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: from})
}

// A member that leaves the view must take its credit state with it: a
// generous grant collected before the removal used to survive the
// round trip and let a re-admitted member's window be bypassed
// entirely.
func TestRemovalDropsStaleCredit(t *testing.T) {
	h, layer, peer := window4(t)
	// The peer is feeling generous, then crashes out of the view.
	grant(h, peer, 1000)
	h.InstallView(h.Self())
	// It comes back under the same identity: the old grant is from a
	// stream that no longer exists and must be gone.
	h.InstallView(h.Self(), peer)
	for i := 0; i < 10; i++ {
		h.InjectDown(core.NewCast(message.New([]byte{byte(i)})))
	}
	if got := len(h.DownOfType(core.DCast)); got != 4 {
		t.Fatalf("%d casts launched after re-admission, want 4 (fresh window)", got)
	}
	if layer.QueueLen() != 6 {
		t.Fatalf("queued = %d, want 6", layer.QueueLen())
	}
}

// Casts stalled on a failed receiver's exhausted credit must drain as
// soon as a view change removes that receiver, instead of wedging
// behind a member that will never grant again.
func TestRemovalReleasesBlockedQueue(t *testing.T) {
	h := layertest.New(t, fc.NewWithWindow(4))
	b := layertest.ID("b", 2)
	c := layertest.ID("c", 3)
	h.InstallView(h.Self(), b, c)
	layer := h.G.Focus("FC").(*fc.Fc)
	for i := 0; i < 10; i++ {
		h.InjectDown(core.NewCast(message.New([]byte{byte(i)})))
	}
	if got := len(h.DownOfType(core.DCast)); got != 4 {
		t.Fatalf("%d casts launched with window 4, want 4", got)
	}
	// c keeps granting; b has gone silent. The queue stays blocked on b.
	grant(h, c, 12)
	if got := len(h.DownOfType(core.DCast)); got != 4 {
		t.Fatalf("%d casts launched while still blocked on b, want 4", got)
	}
	// Membership expels b: the queue must re-evaluate and drain under
	// c's credit alone.
	h.InstallView(h.Self(), c)
	if got := len(h.DownOfType(core.DCast)); got != 10 {
		t.Fatalf("%d casts launched after b was removed, want 10", got)
	}
	if layer.QueueLen() != 0 {
		t.Fatalf("queue not re-evaluated on removal: %d left", layer.QueueLen())
	}
}

// A remove/re-add cycle must leave both sides of the credit protocol
// in the same frame. With the old global sent counter, casts launched
// while the member was away advanced the sender's frame but not the
// receiver's, so every later grant fell short of the raised credit and
// the window wedged permanently.
func TestRemovedThenReaddedMemberDoesNotWedge(t *testing.T) {
	h, layer, peer := window4(t)
	h.InjectDown(core.NewCast(message.New([]byte{0})))
	h.InjectDown(core.NewCast(message.New([]byte{1})))
	// The peer drops out; five casts go to the remaining singleton view
	// and never touch the peer's stream.
	h.InstallView(h.Self())
	for i := 2; i < 7; i++ {
		h.InjectDown(core.NewCast(message.New([]byte{byte(i)})))
	}
	if got := len(h.DownOfType(core.DCast)); got != 7 {
		t.Fatalf("%d casts launched in singleton view, want 7", got)
	}
	// Re-admission: both frames restart at zero, one full window opens.
	h.InstallView(h.Self(), peer)
	for i := 7; i < 17; i++ {
		h.InjectDown(core.NewCast(message.New([]byte{byte(i)})))
	}
	if got := len(h.DownOfType(core.DCast)); got != 11 {
		t.Fatalf("%d casts launched after re-admission, want 11 (one window more)", got)
	}
	// The re-added peer grants from its fresh frame: having delivered 4,
	// it grants a cumulative end of 8, then 12. Each grant must be
	// accepted and open the window further — this is exactly the grant
	// sequence the old code rejected as "stale".
	grant(h, peer, 8)
	if got := len(h.DownOfType(core.DCast)); got != 15 {
		t.Fatalf("%d casts after fresh-frame grant to 8, want 15", got)
	}
	grant(h, peer, 12)
	if got := len(h.DownOfType(core.DCast)); got != 17 {
		t.Fatalf("%d casts after fresh-frame grant to 12, want 17", got)
	}
	if layer.QueueLen() != 0 {
		t.Fatalf("window wedged: %d casts still queued", layer.QueueLen())
	}
}

func TestDeliveryPassesUp(t *testing.T) {
	h, _, peer := window4(t)
	m := message.New([]byte("body"))
	m.PushUint8(1) // kData
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
	got := h.LastUp()
	if got == nil || got.Type != core.UCast || string(got.Msg.Body()) != "body" {
		t.Fatalf("delivery mangled: %v", got)
	}
}
