package bms_test

import (
	"strings"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/bms"
	"horus/internal/layers/mbrship"
	"horus/internal/layertest"
	"horus/internal/message"
)

// timers are the simulation-friendly MBRSHIP timer settings.
var timers = []mbrship.Option{
	mbrship.WithGossipPeriod(40 * time.Millisecond),
	mbrship.WithFlushTimeout(500 * time.Millisecond),
}

func TestBMSIsRenamedMembership(t *testing.T) {
	l := bms.New()
	if l.Name() != "BMS" {
		t.Fatalf("Name = %q", l.Name())
	}
	if _, ok := l.(*mbrship.Mbrship); !ok {
		t.Fatal("BMS is not the MBRSHIP machinery")
	}
}

func TestBMSKeepsNoLog(t *testing.T) {
	h := layertest.New(t, bms.NewAutoConsent(timers...))
	h.Run(time.Millisecond) // initial singleton view
	// Cast a few messages; the BMS variant must not retain them for
	// flushing (that is FLUSH's job in the decomposition).
	for i := 0; i < 3; i++ {
		h.InjectDown(core.NewCast(message.New([]byte{byte(i)})))
	}
	dump := h.G.Dump()
	if dump == "" {
		t.Fatal("no dump")
	}
	// The MBRSHIP dump line reports logged=N; BMS must report 0.
	if want := "logged=0"; !strings.Contains(dump, want) {
		t.Fatalf("dump %q does not contain %q", dump, want)
	}
}

func TestBMSWithFlushAboveWaitsForConsent(t *testing.T) {
	// The non-auto-consent variant must not reply to a flush by
	// itself; it waits for the flush_ok downcall. We observe this as
	// the singleton case: a merge flush only completes after consent.
	h := layertest.New(t, bms.NewWith(timers...))
	h.Run(time.Millisecond)
	views := h.UpOfType(core.UView)
	if len(views) != 1 {
		t.Fatalf("initial views = %d", len(views))
	}
}
