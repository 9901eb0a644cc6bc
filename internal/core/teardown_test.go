package core_test

import (
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/netsim"
)

const tickEvery = 10 * time.Millisecond

// ticker arms a periodic timer and re-arms it from every firing. It
// handles no destroy downcall and never stops its timer, so whatever
// stops it is core's.
type ticker struct {
	core.Base
	timer core.Timer[ticker]
	fired int
}

func (*ticker) Name() string { return "TICK" }

func (k *ticker) Init(c *core.Context) error {
	if err := k.Base.Init(c); err != nil {
		return err
	}
	k.timer.Bind(c, k, (*ticker).tick)
	k.timer.Reset(tickEvery)
	return nil
}

func (k *ticker) tick() {
	k.fired++
	k.timer.Reset(tickEvery)
}

// holder hosts a segment of one layer, as SWITCH hosts its managed
// segment.
type holder struct {
	core.Base
	inner core.Layer
	seg   *core.Stack
}

func (*holder) Name() string { return "HOLD" }

func (h *holder) Init(c *core.Context) error {
	if err := h.Base.Init(c); err != nil {
		return err
	}
	var err error
	h.seg, err = c.NewSegment(core.StackSpec{func() core.Layer { return h.inner }},
		func(*core.Event) {}, func(*core.Event) {})
	return err
}

// TestTimersStopWithTheirStack pins the one teardown mechanism layers
// rely on: a timer runs only while its stack, and every stack hosting
// it, is live. A periodic timer whose layer does nothing at teardown
// stops when its group leaves, when its endpoint is destroyed, when the
// segment holding it is detached, and when that segment's host closes.
func TestTimersStopWithTheirStack(t *testing.T) {
	for _, tc := range []struct {
		name    string
		segment bool // the ticker sits in a segment the stack's one layer holds
		stop    func(ep *core.Endpoint, g *core.Group, h *holder)
	}{
		{"group leaves", false, func(_ *core.Endpoint, g *core.Group, _ *holder) { g.Leave() }},
		{"endpoint destroyed", false, func(ep *core.Endpoint, _ *core.Group, _ *holder) { ep.Destroy() }},
		{"segment detached", true, func(ep *core.Endpoint, _ *core.Group, h *holder) { ep.Do(h.seg.Detach) }},
		{"segment's host closes", true, func(_ *core.Endpoint, g *core.Group, _ *holder) { g.Leave() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.New(netsim.Config{Seed: 1})
			ep := net.NewEndpoint("a")
			tk := &ticker{}
			h := &holder{inner: tk}
			top := core.Layer(tk)
			if tc.segment {
				top = h
			}
			g, err := ep.Join("g", core.StackSpec{func() core.Layer { return top }}, nil)
			if err != nil {
				t.Fatal(err)
			}
			fired := func() (n int) {
				ep.Do(func() { n = tk.fired })
				return n
			}
			net.RunFor(10 * tickEvery)
			if n := fired(); n != 10 {
				t.Fatalf("live ticker fired %d times in ten periods, want 10", n)
			}
			tc.stop(ep, g, h)
			net.RunFor(10 * tickEvery)
			if n := fired(); n != 10 {
				t.Errorf("ticker fired %d times after teardown, want 10 as before it", n)
			}
		})
	}
}
