package layertest_test

import (
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/message"
)

// echoLayer reflects casts upward with a marker, to verify harness
// plumbing in both directions.
type echoLayer struct{ core.Base }

func (e *echoLayer) Name() string { return "ECHO" }
func (e *echoLayer) Down(ev *core.Event) {
	if ev.Type == core.DCast {
		e.Ctx.Up(&core.Event{Type: core.UCast, Msg: ev.Msg, Source: e.Ctx.Self()})
		return
	}
	e.Ctx.Down(ev)
}

func TestHarnessCapturesBothDirections(t *testing.T) {
	h := layertest.New(t, func() core.Layer { return &echoLayer{} })
	h.InjectDown(core.NewCast(message.New([]byte("ping"))))
	if got := h.UpOfType(core.UCast); len(got) != 1 || string(got[0].Msg.Body()) != "ping" {
		t.Fatalf("up capture = %v", got)
	}
	if got := h.DownOfType(core.DCast); len(got) != 0 {
		t.Fatal("echoed cast leaked downward")
	}
	h.InjectDown(&core.Event{Type: core.DLeave})
	if got := h.DownOfType(core.DLeave); len(got) != 1 {
		t.Fatal("pass-through downcall not captured at bottom")
	}
	// Handled events reach the fake application.
	if len(h.Handled) == 0 {
		t.Fatal("handler saw nothing")
	}
	h.Reset()
	if len(h.Handled) != 0 || h.LastUp() != nil || h.LastDown() != nil {
		t.Fatal("Reset left residue")
	}
}

// timerLayer emits an upcall when its timer fires, validating that
// harness time control reaches layer timers.
type timerLayer struct {
	core.Base
	timer core.Timer[timerLayer]
}

func (l *timerLayer) Name() string { return "TIMER" }
func (l *timerLayer) Init(c *core.Context) error {
	if err := l.Base.Init(c); err != nil {
		return err
	}
	l.timer.Bind(c, l, (*timerLayer).fire)
	l.timer.Reset(30 * time.Millisecond)
	return nil
}

func (l *timerLayer) fire() {
	l.Ctx.Up(&core.Event{Type: core.UProblem, Source: l.Ctx.Self()})
}

func TestHarnessDrivesTimers(t *testing.T) {
	h := layertest.New(t, func() core.Layer { return &timerLayer{} })
	h.Run(10 * time.Millisecond)
	if got := h.UpOfType(core.UProblem); len(got) != 0 {
		t.Fatal("timer fired early")
	}
	h.Run(50 * time.Millisecond)
	if got := h.UpOfType(core.UProblem); len(got) != 1 {
		t.Fatalf("timer upcalls = %d, want 1", len(got))
	}
}

func TestInstallViewReachesBothSides(t *testing.T) {
	h := layertest.New(t, func() core.Layer { return &echoLayer{} })
	v := h.InstallView(h.Self(), layertest.ID("p", 2))
	if v.Size() != 2 {
		t.Fatal("view built wrong")
	}
	if got := h.DownOfType(core.DView); len(got) != 1 {
		t.Fatal("view downcall missing below")
	}
	if got := h.UpOfType(core.UView); len(got) != 1 {
		t.Fatal("view upcall missing above")
	}
}
