package core

import (
	"fmt"
	"strings"
)

// SubStack is a privately owned run of layers living inside a single
// host layer of an ordinary Stack. It is the mechanism behind run-time
// reconfiguration (the SWITCH layer): the outer stack never mutates —
// its contexts and indices stay frozen — while the host builds, swaps
// and retires whole segments at will.
//
// Events injected at the segment's top (Down) or bottom (Up) traverse
// the segment layer by layer exactly as in an outer stack; whatever
// falls off either end is handed to the host's top/bottom hooks. The
// segment shares the host's endpoint, group, timers and transport: a
// segment layer's Context answers Self/Now/SetTimer identically to an
// outer context, so any Layer composes into a segment unchanged.
//
// Segments have no independent destroy lifecycle — the host drives
// DDestroy through a retiring segment and then Detach()es it, after
// which the segment is inert: events stop traversing and pending timers
// of its layers fire into the void. That detach fence is what makes a
// swap atomic from the outer stack's point of view.
type SubStack struct {
	host     *Context
	layers   []Layer
	top      func(*Event)
	bottom   func(*Event)
	detached bool
}

// Quiescer is the optional interface a layer implements to report
// whether it holds in-flight work. The SWITCH layer polls it during
// the quiesce phase of a reconfiguration: a segment may only be
// swapped at a communication-closed cut, i.e. when no layer is still
// holding traffic in either direction.
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
// SubStack (the SWITCH layer). Stack.Focus and Stack.Names descend
// into held segments, so g.Focus("TOTAL") finds an ordering layer
// even when it lives inside a managed segment.
type SegmentHolder interface {
	Segment() *SubStack
}

// NewSubStack composes a segment owned by the calling layer. Events
// falling off the segment's top are passed to top; events falling off
// its bottom are passed to bottom — typically the host forwards them
// into its own Context (Up/Down), tagging or filtering as it goes.
// Layers are instantiated and Init'd top first, like newStack.
func (c *Context) NewSubStack(spec StackSpec, top, bottom func(*Event)) (*SubStack, error) {
	ss := &SubStack{host: c, top: top, bottom: bottom}
	for _, f := range spec {
		ss.layers = append(ss.layers, f())
	}
	for i, l := range ss.layers {
		if err := l.Init(&Context{stack: c.stack, index: i, sub: ss}); err != nil {
			return nil, fmt.Errorf("init segment layer %d (%s): %w", i, l.Name(), err)
		}
	}
	return ss, nil
}

// Down injects ev at the top of the segment.
func (ss *SubStack) Down(ev *Event) { ss.down(0, ev) }

// Up injects ev at the bottom of the segment.
func (ss *SubStack) Up(ev *Event) { ss.up(len(ss.layers)-1, ev) }

func (ss *SubStack) down(from int, ev *Event) {
	if ss.detached {
		return
	}
	if from < len(ss.layers) {
		ss.layers[from].Down(ev)
		return
	}
	ss.bottom(ev)
}

func (ss *SubStack) up(from int, ev *Event) {
	if ss.detached {
		return
	}
	if from >= 0 {
		ss.layers[from].Up(ev)
		return
	}
	ss.top(ev)
}

// Detach makes the segment inert: further traversals stop dead and
// timers armed by its layers no longer fire. The host calls this after
// driving DDestroy through a retiring segment, so a zombie timer or a
// buffered continuation inside an old segment cannot leak events into
// the stack after the swap.
func (ss *SubStack) Detach() { ss.detached = true }

// Quiescent reports whether every segment layer that implements
// Quiescer is quiescent in the given direction. An empty segment is
// trivially quiescent.
func (ss *SubStack) Quiescent(down bool) bool {
	for _, l := range ss.layers {
		if q, ok := l.(Quiescer); ok && !q.Quiescent(down) {
			return false
		}
	}
	return true
}

// Focus returns the segment layer with the given name, or nil.
func (ss *SubStack) Focus(name string) Layer {
	for _, l := range ss.layers {
		if l.Name() == name {
			return l
		}
	}
	return nil
}

// Names returns the segment's layer names top first, ":"-joined.
func (ss *SubStack) Names() string {
	names := make([]string, len(ss.layers))
	for i, l := range ss.layers {
		names[i] = l.Name()
	}
	return strings.Join(names, ":")
}

// Len returns the number of segment layers.
func (ss *SubStack) Len() int { return len(ss.layers) }

// BelowNames returns the protocol names of every layer strictly below
// the calling layer, top first — for a segment layer that includes the
// rest of its segment, then the host layer and everything under it.
// The SWITCH layer feeds this to the property calculus to re-derive
// Table 3 well-formedness of a proposed segment over what is actually
// beneath it.
func (c *Context) BelowNames() []string {
	var names []string
	if c.sub != nil {
		for _, l := range c.sub.layers[c.index+1:] {
			names = append(names, l.Name())
		}
		h := c.sub.host
		for _, l := range h.stack.layers[h.index:] {
			names = append(names, l.Name())
		}
		return names
	}
	for _, l := range c.stack.layers[c.index+1:] {
		names = append(names, l.Name())
	}
	return names
}
