package trace_test

import (
	"testing"

	"horus/internal/core"
	"horus/internal/layers/trace"
	"horus/internal/layertest"
	"horus/internal/message"
)

func TestCountsBothDirections(t *testing.T) {
	h := layertest.New(t, trace.New)
	h.InjectDown(core.NewCast(message.New([]byte("a"))))
	h.InjectDown(core.NewCast(message.New([]byte("b"))))
	h.InjectUp(&core.Event{Type: core.UCast, Msg: message.New([]byte("c")), Source: layertest.ID("p", 2)})

	tr := h.G.Focus("TRACE").(*trace.Trace)
	if got := tr.Counts(true)[core.DCast]; got != 2 {
		t.Errorf("down casts = %d, want 2", got)
	}
	if got := tr.Counts(false)[core.UCast]; got != 1 {
		t.Errorf("up casts = %d, want 1", got)
	}
}

func TestTransparent(t *testing.T) {
	h := layertest.New(t, trace.New)
	m := message.New([]byte("payload"))
	h.InjectDown(core.NewCast(m))
	sent := h.LastDown()
	if sent.Msg.HeaderLen() != 0 {
		t.Errorf("TRACE pushed %d header bytes, want 0", sent.Msg.HeaderLen())
	}
	if string(sent.Msg.Body()) != "payload" {
		t.Error("TRACE altered the payload")
	}
}

func TestLogBounded(t *testing.T) {
	h := layertest.New(t, trace.New)
	for i := 0; i < trace.LogSize+10; i++ {
		h.InjectDown(core.NewCast(message.New([]byte{byte(i)})))
	}
	tr := h.G.Focus("TRACE").(*trace.Trace)
	log := tr.Log()
	if len(log) != trace.LogSize {
		t.Fatalf("log kept %d records, want %d", len(log), trace.LogSize)
	}
	for _, r := range log {
		if !r.Down || r.Type != core.DCast {
			t.Errorf("unexpected record %+v", r)
		}
	}
}

func TestDumpIncludesSummary(t *testing.T) {
	h := layertest.New(t, trace.New)
	h.InjectDown(core.NewCast(message.New(nil)))
	dump := h.G.Dump()
	if dump == "" {
		t.Fatal("empty dump")
	}
}
