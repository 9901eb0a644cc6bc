package nnak_test

import (
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/nnak"
	"horus/internal/layertest"
	"horus/internal/message"
)

func TestHighPriorityJumpsQueue(t *testing.T) {
	h := layertest.New(t, nnak.New)
	h.InjectDown(&core.Event{Type: core.DCast, Msg: message.New([]byte("bulk1")), Priority: 0})
	h.InjectDown(&core.Event{Type: core.DCast, Msg: message.New([]byte("bulk2")), Priority: 0})
	h.InjectDown(&core.Event{Type: core.DCast, Msg: message.New([]byte("urgent")), Priority: 9})
	h.Run(100 * time.Millisecond)

	sent := h.DownOfType(core.DCast)
	if len(sent) != 3 {
		t.Fatalf("sent %d, want 3", len(sent))
	}
	// bulk1 left immediately (queue was empty); urgent overtakes bulk2.
	order := []string{string(sent[0].Msg.Body()), string(sent[1].Msg.Body()), string(sent[2].Msg.Body())}
	if order[0] != "bulk1" || order[1] != "urgent" || order[2] != "bulk2" {
		t.Fatalf("send order %v, want [bulk1 urgent bulk2]", order)
	}
}

func TestPacingSpacing(t *testing.T) {
	h := layertest.New(t, nnak.New)
	for i := 0; i < 5; i++ {
		h.InjectDown(core.NewCast(message.New([]byte{byte(i)})))
	}
	h.Run(time.Millisecond / 2) // the pace is a millisecond
	if got := len(h.DownOfType(core.DCast)); got != 1 {
		t.Fatalf("%d sent before pace interval, want 1", got)
	}
	h.Run(100 * time.Millisecond)
	if got := len(h.DownOfType(core.DCast)); got != 5 {
		t.Fatalf("%d sent after draining, want 5", got)
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	h := layertest.New(t, nnak.New)
	for i := 0; i < 4; i++ {
		h.InjectDown(&core.Event{Type: core.DCast, Msg: message.New([]byte{byte('a' + i)}), Priority: 5})
	}
	h.Run(50 * time.Millisecond)
	sent := h.DownOfType(core.DCast)
	for i := range sent {
		if sent[i].Msg.Body()[0] != byte('a'+i) {
			t.Fatalf("priority-5 queue not FIFO: %v", sent)
		}
	}
}

func TestArrivalsPassThroughUnchanged(t *testing.T) {
	h := layertest.New(t, nnak.New)
	m := message.New([]byte("up"))
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: layertest.ID("p", 2)})
	got := h.LastUp()
	if got == nil || string(got.Msg.Body()) != "up" {
		t.Fatal("NNAK altered an arrival (it pushes no header)")
	}
}
