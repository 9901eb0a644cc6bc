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
type Stack struct {
	group     *Group
	layers    []Layer
	destroyed bool
}

// newStack instantiates every factory in spec, wires contexts and runs
// Init top-down.
func newStack(g *Group, spec StackSpec) (*Stack, error) {
	s := &Stack{group: g, layers: make([]Layer, 0, len(spec))}
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
// the group, which updates its cached state and invokes the
// application handler.
func (s *Stack) deliverUp(ev *Event) {
	if s.destroyed && ev.Type != UDestroy && ev.Type != UExit {
		return
	}
	s.group.deliver(ev)
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
