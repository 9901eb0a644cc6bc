// Package safe implements ORDER(safe): safe delivery (property P7).
//
// A safely delivered message is one that every surviving member of the
// view is known to have received before any member's application sees
// it — the delivery discipline databases want before applying an
// update. SAFE sits above a stability layer (STABLE or PINWHEEL,
// property P14): it acknowledges each arriving multicast on behalf of
// the application, buffers it, and releases it upward only once the
// stability matrix shows the message reached every member.
//
// Stacks using SAFE give the ack downcall to this layer; applications
// above it get safe delivery instead of application-defined stability.
//
// Properties: requires P3, P8, P9, P14, P15; provides P7.
package safe

import (
	"fmt"
	"sort"

	"horus/internal/core"
)

// Safe is one ORDER(safe) layer instance.
type Safe struct {
	core.Base
	view  *core.View
	held  map[core.EndpointID]*core.Queue // per-origin, ascending seq
	stats Stats
}

// Stats counts SAFE activity.
type Stats struct {
	Held     int // messages buffered awaiting stability
	Released int // messages delivered safely
}

// New returns a SAFE layer.
func New() core.Layer { return &Safe{} }

// Name implements core.Layer.
func (s *Safe) Name() string { return "SAFE" }

// Stats returns a snapshot of the layer's counters.
func (s *Safe) Stats() Stats { return s.stats }

// Init implements core.Layer.
func (s *Safe) Init(c *core.Context) error {
	if err := s.Base.Init(c); err != nil {
		return err
	}
	s.held = make(map[core.EndpointID]*core.Queue)
	return nil
}

// Up implements core.Layer.
func (s *Safe) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		if ev.ID.Origin.IsZero() {
			// No stability layer below assigned an identity; cannot
			// hold what cannot be released.
			s.Ctx.Up(&core.Event{Type: core.USystemError,
				Detail: &core.Detail{Reason: "safe: CAST without message identity (no stability layer below?)"}})
			return
		}
		// Receiving is this layer's definition of "processed": the ack
		// feeds the stability machinery below.
		s.hold(ev)
		s.Ctx.Down(&core.Event{Type: core.DAck, ID: ev.ID})
	case core.UStable:
		s.release(ev.Stability)
		s.Ctx.Up(ev)
	case core.UView:
		s.view = ev.View
		// Virtual synchrony below has equalized deliveries; releasing
		// everything held is consistent across survivors.
		s.flushAll()
		s.Ctx.Up(ev)
	default:
		s.Ctx.Up(ev)
	}
}

// hold buffers ev behind its origin's earlier casts (P3: in seq order).
func (s *Safe) hold(ev *core.Event) {
	s.stats.Held++
	o := ev.ID.Origin
	q := s.held[o]
	if q == nil {
		q = new(core.Queue)
		s.held[o] = q
	}
	q.Put(s.Ctx, ev)
}

// release delivers every held message the matrix proves has reached
// all members, origins in rank order, which is oldest first.
func (s *Safe) release(m *core.StabilityMatrix) {
	if m == nil {
		return
	}
	for i, origin := range m.Members {
		q, stable := s.held[origin], m.MinStable(i)
		for q != nil && q.Len() > 0 && q.At(0).ID.Seq <= stable {
			s.stats.Released++
			s.Ctx.Up(q.Remove(0))
		}
	}
}

// flushAll releases everything held (view-change cut).
func (s *Safe) flushAll() {
	for _, o := range s.origins() {
		s.held[o].Drain(func(ev *core.Event) {
			s.stats.Released++
			s.Ctx.Up(ev)
		})
		delete(s.held, o)
	}
}

// origins lists the origins held casts came from, oldest first, so
// that releases reach the application in one order on every run.
func (s *Safe) origins() []core.EndpointID {
	origins := make([]core.EndpointID, 0, len(s.held))
	for o := range s.held {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i].Older(origins[j]) })
	return origins
}

// Down implements core.Layer.
func (s *Safe) Down(ev *core.Event) {
	if ev.Type == core.DDump {
		ev.Dump = append(ev.Dump, fmt.Sprintf("SAFE: held=%d released=%d",
			s.heldCount(), s.stats.Released))
	}
	s.Ctx.Down(ev)
}

func (s *Safe) heldCount() int {
	n := 0
	for _, q := range s.held {
		n += q.Len()
	}
	return n
}
