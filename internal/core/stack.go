package core

import (
	"fmt"
	"strings"
)

// Stack is one composed protocol stack serving a single (endpoint,
// group) pair. Layers are ordered top first; events enter at the top
// (downcalls) or the bottom (network packets) and traverse layer by
// layer as synchronous calls — the per-layer cost the §10 benchmarks
// measure.
//
// A stack may also be a *segment*: a run of layers privately owned by
// one host layer of another stack (Context.NewSegment). It is the
// mechanism behind run-time reconfiguration (the SWITCH layer): the
// outer stack never mutates — its contexts and indices stay frozen —
// while the host builds, swaps and retires whole segments at will. A
// segment routes exactly like an outer stack; only its two ends differ.
// Whatever falls off its top or bottom is handed to the host's hooks,
// and it shares the host's endpoint, group, timers and transport, so
// any Layer composes into a segment unchanged.
type Stack struct {
	group     *Group
	layers    []Layer
	destroyed bool

	// host, top and bottom are set on a segment only: the host layer's
	// context and the hooks that receive what falls off either end.
	host        *Context
	top, bottom func(*Event)
}

// Quiescer is the optional interface a layer implements to report
// whether it holds in-flight work. The SWITCH layer polls it during a
// reconfiguration: a segment may only be swapped at a
// communication-closed cut, i.e. when no layer is still holding
// traffic in either direction.
//
// down=true asks about the sending side (unsent or unacknowledged
// output the layer still intends to push down); down=false asks about
// the delivery side (received data buffered awaiting delivery upward,
// e.g. an ordering layer's reorder buffer). A layer that buffers
// nothing need not implement Quiescer and is assumed quiescent.
type Quiescer interface {
	Quiescent(down bool) bool
}

// SegmentHolder is implemented by layers that privately manage a
// segment (the SWITCH layer). Stack.Focus and Stack.Names descend into
// held segments, so g.Focus("TOTAL") finds an ordering layer even when
// it lives inside a managed segment.
type SegmentHolder interface {
	Segment() *Stack
}

// newStack instantiates every factory in spec, wires contexts and runs
// Init top-down.
func newStack(g *Group, spec StackSpec) (*Stack, error) {
	return (&Stack{group: g}).compose(spec)
}

// NewSegment composes a segment owned by the calling layer. Events
// falling off the segment's top are passed to top; events falling off
// its bottom are passed to bottom — typically the host forwards them
// into its own Context (Up/Down), tagging or filtering as it goes.
func (c *Context) NewSegment(spec StackSpec, top, bottom func(*Event)) (*Stack, error) {
	return (&Stack{group: c.stack.group, host: c, top: top, bottom: bottom}).compose(spec)
}

func (s *Stack) compose(spec StackSpec) (*Stack, error) {
	s.layers = make([]Layer, 0, len(spec))
	for _, f := range spec {
		s.layers = append(s.layers, f())
	}
	for i, l := range s.layers {
		if err := l.Init(&Context{stack: s, index: i}); err != nil {
			return nil, fmt.Errorf("init layer %d (%s): %w", i, l.Name(), err)
		}
	}
	return s, nil
}

// Down injects a downcall at the top of the stack. Callers outside the
// endpoint's event queue must go through Group's methods instead.
func (s *Stack) Down(ev *Event) {
	if s.destroyed {
		return
	}
	(&Context{stack: s, index: -1}).Down(ev)
}

// PlanStats is what Stack.PlanStats reports.
type PlanStats struct {
	// Fast counts casts that bypassed the layers' Down: none.
	Fast uint64
}

// PlanStats is always zero. It is a vestige: stacks once compiled a
// cast plan that carried casts past the layers, and the benchmark in
// bench/ still reads Fast to report the share of casts it carried.
// Every cast now goes through the layers, so that share is 0.
func (s *Stack) PlanStats() PlanStats { return PlanStats{} }

// Up injects an upcall at the bottom of the stack (a network arrival).
func (s *Stack) Up(ev *Event) {
	if s.destroyed {
		return
	}
	(&Context{stack: s, index: len(s.layers)}).Up(ev)
}

// deliverUp hands an event that emerged from the top of the stack to
// the host's hook (a segment) or to the group, which updates its
// cached state and invokes the application handler.
func (s *Stack) deliverUp(ev *Event) {
	switch {
	case s.top != nil:
		if !s.destroyed {
			s.top(ev)
		}
	case !s.destroyed || ev.Type == UDestroy || ev.Type == UExit:
		s.group.deliver(ev)
	}
}

// Detach makes a retired segment inert: nothing it emits leaves either
// end any more, and timers armed by its layers no longer fire. It is
// the whole of retiring a segment, so a zombie timer or a buffered
// continuation inside an old segment cannot leak events into the stack
// after a swap.
func (s *Stack) Detach() { s.destroyed = true }

// live reports whether the stack and every stack hosting it are still
// undestroyed: a segment's timers stop with either.
func (s *Stack) live() bool {
	for !s.destroyed {
		if s.host == nil {
			return true
		}
		s = s.host.stack
	}
	return false
}

// Quiescent reports whether every layer that implements Quiescer is
// quiescent in the given direction. An empty stack trivially is.
func (s *Stack) Quiescent(down bool) bool {
	for _, l := range s.layers {
		if q, ok := l.(Quiescer); ok && !q.Quiescent(down) {
			return false
		}
	}
	return true
}

// Focus returns the layer instance with the given name, or nil. This
// is the focus downcall of Table 1: a handle into a specific layer for
// out-of-band inspection or configuration.
func (s *Stack) Focus(name string) Layer {
	for _, l := range s.layers {
		if l.Name() == name {
			return l
		}
		if h, ok := l.(SegmentHolder); ok {
			if seg := h.Segment(); seg != nil {
				if f := seg.Focus(name); f != nil {
					return f
				}
			}
		}
	}
	return nil
}

// Names returns the stack's layer names top first, e.g.
// "TOTAL:MBRSHIP:FRAG:NAK:COM".
func (s *Stack) Names() string {
	names := make([]string, len(s.layers))
	for i, l := range s.layers {
		names[i] = l.Name()
		if h, ok := l.(SegmentHolder); ok {
			if seg := h.Segment(); seg != nil {
				names[i] += "[" + seg.Names() + "]"
			}
		}
	}
	return strings.Join(names, ":")
}

// Len returns the number of layers.
func (s *Stack) Len() int { return len(s.layers) }

// BelowNames returns the protocol names of every layer strictly below
// the calling layer, top first — for a segment layer that includes the
// rest of its segment, then the host layer and everything under it.
// The SWITCH layer feeds this to the property calculus to re-derive
// Table 3 well-formedness of a proposed segment over what is actually
// beneath it.
func (c *Context) BelowNames() []string {
	var names []string
	for s, from := c.stack, c.index+1; ; s, from = s.host.stack, s.host.index {
		for _, l := range s.layers[from:] {
			names = append(names, l.Name())
		}
		if s.host == nil {
			return names
		}
	}
}
