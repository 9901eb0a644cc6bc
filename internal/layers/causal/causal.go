// Package causal implements ORDER(causal): causally ordered multicast
// delivery (property P5).
//
// The layer consumes the vector timestamps attached by a TSTAMP layer
// below it (property P13). A message from rank r with vector V is
// deliverable once V[r] == delivered[r]+1 and V[q] <= delivered[q] for
// every other rank q: everything that causally preceded it has been
// delivered. Messages arriving early wait in a buffer.
//
// Because TSTAMP advances its vector when a message is *received*
// rather than when this layer releases it, the enforced order is at
// least causal (possibly stronger), which preserves correctness.
//
// Properties: requires P3, P8, P9, P13, P15; provides P5.
package causal

import (
	"fmt"

	"horus/internal/core"
)

// Causal is one ORDER(causal) layer instance.
type Causal struct {
	core.Base
	view      *core.View
	delivered []uint64 // per-rank count of causally delivered messages
	waiting   []*core.Event
	stats     Stats
}

// Stats counts CAUSAL activity.
type Stats struct {
	Delivered int
	Buffered  int // arrivals that had to wait
}

// New returns a CAUSAL layer.
func New() core.Layer { return &Causal{} }

// Name implements core.Layer.
func (c *Causal) Name() string { return "CAUSAL" }

// Stats returns a snapshot of the layer's counters.
func (c *Causal) Stats() Stats { return c.stats }

// Up implements core.Layer.
func (c *Causal) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		if ev.Timestamp == nil {
			c.Ctx.Up(&core.Event{Type: core.USystemError,
				Detail: &core.Detail{Reason: "causal: CAST without vector timestamp (no TSTAMP layer below?)"}})
			return
		}
		if c.deliverable(ev) {
			c.deliver(ev)
			c.drain()
			return
		}
		c.stats.Buffered++
		c.Ctx.Hold(ev)
		c.waiting = append(c.waiting, ev)
	case core.UView:
		c.view = ev.View
		// Virtual synchrony below guarantees the causal cut: release
		// anything still waiting (consistent across survivors), then
		// reset vectors for the new view.
		for _, w := range c.waiting {
			c.deliverRaw(w)
		}
		c.waiting = nil
		c.delivered = make([]uint64, ev.View.Size())
		c.Ctx.Up(ev)
	default:
		c.Ctx.Up(ev)
	}
}

// deliverable applies the vector-clock delivery condition.
func (c *Causal) deliverable(ev *core.Event) bool {
	if c.view == nil {
		return false
	}
	r := c.view.Rank(ev.Source)
	if r < 0 || r >= len(c.delivered) {
		return false
	}
	v := ev.Timestamp
	for q := range c.delivered {
		var vq uint64
		if q < len(v) {
			vq = v[q]
		}
		if q == r {
			if vq != c.delivered[q]+1 {
				return false
			}
			continue
		}
		if vq > c.delivered[q] {
			return false
		}
	}
	return true
}

func (c *Causal) deliver(ev *core.Event) {
	r := c.view.Rank(ev.Source)
	if r >= 0 && r < len(c.delivered) {
		c.delivered[r]++
	}
	c.deliverRaw(ev)
}

func (c *Causal) deliverRaw(ev *core.Event) {
	c.stats.Delivered++
	c.Ctx.Up(ev)
}

// drain releases newly deliverable buffered messages until a fixpoint.
func (c *Causal) drain() {
	for {
		progress := false
		for i := 0; i < len(c.waiting); i++ {
			if c.deliverable(c.waiting[i]) {
				ev := c.waiting[i]
				c.waiting = append(c.waiting[:i], c.waiting[i+1:]...)
				c.deliver(ev)
				progress = true
				i--
			}
		}
		if !progress {
			return
		}
	}
}

// Down implements core.Layer.
func (c *Causal) Down(ev *core.Event) {
	if ev.Type == core.DDump {
		ev.Dump = append(ev.Dump, fmt.Sprintf("CAUSAL: delivered=%d waiting=%d",
			c.stats.Delivered, len(c.waiting)))
	}
	c.Ctx.Down(ev)
}
