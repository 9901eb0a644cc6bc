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
	skip      *skipTables
	plan      *castPlan
	destroyed bool
}

// newStack instantiates every factory in spec, wires contexts, runs
// Init top-down, precomputes the layer-skipping jump tables (§10
// item 1), and — when every layer compiles — derives the compacted
// cast send plan (§10 item 3; see plan.go).
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
	s.skip = buildSkipTables(s.layers)
	s.plan = compileCastPlan(s.layers)
	return s, nil
}

// Down injects a downcall at the top of the stack. Callers outside the
// endpoint's event queue must go through Group's methods instead. A
// cast on a stack with a compiled plan takes the fast path unless the
// endpoint pins the reference path.
func (s *Stack) Down(ev *Event) {
	if s.destroyed {
		return
	}
	if ev.Type == DCast && ev.Msg != nil && s.plan != nil && !s.group.ep.slowPath {
		s.plan.execute(ev)
		return
	}
	(&Context{stack: s, index: -1}).Down(ev)
}

// HasCastPlan reports whether every layer compiled into a cast send
// plan when the stack was composed.
func (s *Stack) HasCastPlan() bool { return s.plan != nil }

// PlanStats snapshots the stack's fast-path counters. Zero values on a
// stack without a plan.
func (s *Stack) PlanStats() PlanStats {
	if s.plan == nil {
		return PlanStats{}
	}
	return s.plan.stats
}

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

// skipNextDown resolves the next acting layer at or below from. The
// tables are nil only during Init (layers may arm zero-delay timers
// whose callbacks run after composition, but direct calls during Init
// fall back to no skipping).
func (s *Stack) skipNextDown(t EventType, from, n int) int {
	if s.skip == nil {
		if from > n {
			return n
		}
		return from
	}
	return s.skip.nextDown(t, from, n)
}

// skipNextUp resolves the next acting layer at or above from.
func (s *Stack) skipNextUp(t EventType, from int) int {
	if s.skip == nil {
		return from
	}
	return s.skip.nextUp(t, from)
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
