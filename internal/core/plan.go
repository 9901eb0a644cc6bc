package core

import "encoding/binary"

// This file implements the §10 cast fast path: a per-stack compiled
// send plan that renders the entire downward traversal of a cast into
// one contiguous wire image, written front to back into a reused
// scratch buffer, instead of per-layer push/pop through the Message
// object. It is the compacted-header idea of message/compact.go scaled
// from one layer's fields to the whole stack: at composition time every
// layer declares the exact shape of its cast header (CompileCast), the
// plan derives offsets for the concatenation, and at cast time a single
// pass fills the slots and hands the finished wire to the transport.
//
// The per-layer path is retained unchanged as the always-available
// reference implementation: a plan only exists when every layer of a
// stack compiles, and a compiled plan declines any individual cast it
// cannot express (a gate closed, a size bound exceeded) BEFORE any
// side effect, so execution falls back to the reference path with
// nothing to undo. The differential suite in internal/integration
// pins byte-identical wire output between the two paths.
//
// Lifetime: a plan is derived once per stack (newStack) or segment
// (NewSubStack) and never mutated; SWITCH reconfiguration replaces the
// whole segment, so the epoch fence invalidates the old plan by
// construction — the retired SubStack is detached and its plan goes
// with it. All execution happens on the endpoint's event queue, so the
// scratch buffer and per-cast bookkeeping need no locking.

// CastCompiler is the optional layer interface behind the compiled
// send plan. A layer that implements it describes its cast-downcall
// behaviour declaratively; ok=false means "this instance cannot be
// compiled" (e.g. configured in a mode the plan cannot express) and
// disables the plan for the whole stack.
//
// Compiling is a promise: for any cast the plan accepts, the compiled
// form must write exactly the bytes the layer's Down would have pushed
// and perform exactly the side effects it would have performed, in the
// same order relative to transmission. CompileCast is called once,
// after Init.
type CastCompiler interface {
	CompileCast() (CompiledCast, bool)
}

// CastFrame is the view a compiled layer gets of one cast: its own
// header slot plus the message exactly as the layer would have received
// it on the reference path — Hdr holds the headers pushed by the layers
// above (ending with the application's own pushed bytes) and Body the
// payload. All three slices alias the plan's scratch buffer; they are
// valid only for the duration of the Fill call.
type CastFrame struct {
	Ev   *Event
	Own  []byte // this layer's header slot, front first
	Hdr  []byte // headers above this layer, as received
	Body []byte // payload, as received
}

// CompiledCast is one layer's compiled cast-send behaviour.
type CompiledCast struct {
	// Width is the fixed byte width of the layer's cast header.
	Width int

	// WidthFn overrides Width per cast for variable-width headers
	// (MBRSHIP's view tag carries a site name). It must be pure: it
	// runs during the eligibility pass, before any side effect.
	WidthFn func(ev *Event) int

	// Static, when non-nil, is the header verbatim — precomputed at
	// compile time for layers whose cast header does not depend on the
	// cast (COM's source address, HBEAT's kind byte). Fill is not
	// called for static layers.
	Static []byte

	// Ready gates the fast path per cast; it must be pure. Returning
	// false (MBRSHIP mid-flush, a minority partition) declines the
	// cast and the reference path runs instead.
	Ready func(ev *Event) bool

	// Fits gates on the message size the layer would observe (header
	// and body lengths as received); it must be pure. FRAG declines
	// casts that need splitting.
	Fits func(hdrLen, bodyLen int) bool

	// Fill writes the layer's header into f.Own and performs the
	// layer's per-cast bookkeeping (counters, sequence assignment,
	// retained copies). It must not fail: everything fallible was
	// checked by Ready/Fits.
	Fill func(f *CastFrame)

	// Post runs after the wire has left the stack, mirroring work the
	// reference path does after its Down call returns (MBRSHIP's local
	// self-delivery upcall).
	Post func(ev *Event)

	// Transmit hands the finished wire image to the transport. Exactly
	// the bottom layer of an outer stack provides it (COM); the wire
	// slice aliases the plan's scratch buffer and must not be retained
	// after the call returns — the same contract Transport.Send
	// documents.
	Transmit func(ev *Event, wire []byte)
}

// PlanStats counts fast-path outcomes for one stack or segment, so
// tests can prove the compiled path actually ran (or deliberately
// didn't).
type PlanStats struct {
	// Fast counts casts fully handled by the compiled plan.
	Fast uint64
	// Fallback counts casts the plan declined (gate closed, size
	// bound, non-cast shape) that took the reference path instead.
	Fallback uint64
}

// castPlan is the compiled send plan of one stack or segment.
type castPlan struct {
	steps    []CompiledCast // one per layer, top first
	posts    []func(*Event) // in step order
	terminal func(*Event, []byte)

	// Per-cast working state. Plans execute only on the endpoint's
	// event queue, so reuse is safe and keeps the hot path at zero
	// allocations.
	widths  []int
	scratch []byte
	frame   CastFrame
	stats   PlanStats
}

// compileCastPlan derives the send plan for layers (top first). The
// terminal receives the finished wire when no layer transmits — a
// segment's wire is re-materialized for the host below the fence;
// outer stacks instead end at the bottom layer's Transmit (COM). It
// returns nil when any layer does not compile, when a transmitting
// layer is not at the bottom, or when nothing would consume the wire:
// those stacks use the reference path exclusively.
func compileCastPlan(layers []Layer, terminal func(*Event, []byte)) *castPlan {
	p := &castPlan{terminal: terminal, widths: make([]int, len(layers))}
	for i, l := range layers {
		comp, ok := l.(CastCompiler)
		if !ok {
			return nil
		}
		cc, ok := comp.CompileCast()
		if !ok {
			return nil
		}
		if cc.Static != nil {
			cc.Width = len(cc.Static)
		}
		if cc.Transmit != nil {
			if i != len(layers)-1 || terminal != nil {
				return nil // only the true bottom may transmit
			}
		}
		p.steps = append(p.steps, cc)
		if cc.Post != nil {
			p.posts = append(p.posts, cc.Post)
		}
	}
	if len(p.steps) == 0 {
		return nil
	}
	last := p.steps[len(p.steps)-1]
	if last.Transmit == nil && terminal == nil {
		return nil // no consumer for the wire image
	}
	return p
}

// execute attempts one cast through the compiled plan. It returns
// false — with no side effect whatsoever — when the cast must take the
// reference path. The two-pass structure is what makes that sound:
// pass 1 only evaluates pure gates and widths; writes and bookkeeping
// begin only after the whole cast is known expressible.
func (p *castPlan) execute(ev *Event) bool {
	if ev.Type != DCast || ev.Msg == nil {
		p.stats.Fallback++
		return false
	}

	// Pass 1 — eligibility and layout. Walk top to bottom tracking the
	// header length each layer would observe on the reference path.
	hdrLen, bodyLen := ev.Msg.HeaderLen(), len(ev.Msg.Body())
	for i := range p.steps {
		cc := &p.steps[i]
		if cc.Ready != nil && !cc.Ready(ev) {
			p.stats.Fallback++
			return false
		}
		if cc.Fits != nil && !cc.Fits(hdrLen, bodyLen) {
			p.stats.Fallback++
			return false
		}
		w := cc.Width
		if cc.WidthFn != nil {
			w = cc.WidthFn(ev)
		}
		p.widths[i] = w
		hdrLen += w
	}

	// Pass 2 — fill the flat wire image back to front. The scratch
	// buffer is laid out as [u32 hdrlen][headers][body]; positions
	// follow from the pass-1 walk, so every layer's slot is written
	// exactly once and lower layers (written later) see the finished
	// bytes of everything above them, just as the reference path's
	// push order guarantees.
	total := 4 + hdrLen + bodyLen
	if cap(p.scratch) < total {
		p.scratch = make([]byte, total+total/2)
	}
	scratch := p.scratch[:total]
	appHdr, appBody := ev.Msg.Header(), ev.Msg.Body()
	bodyStart := total - len(appBody)
	copy(scratch[bodyStart:], appBody)
	hdrStart := bodyStart - len(appHdr)
	copy(scratch[hdrStart:], appHdr)

	body := scratch[bodyStart:]
	for i := range p.steps {
		cc := &p.steps[i]
		recvHdr := scratch[hdrStart:bodyStart]
		hdrStart -= p.widths[i]
		own := scratch[hdrStart : hdrStart+p.widths[i]]
		if cc.Static != nil {
			copy(own, cc.Static)
			continue
		}
		p.frame = CastFrame{Ev: ev, Own: own, Hdr: recvHdr, Body: body}
		cc.Fill(&p.frame)
	}
	binary.BigEndian.PutUint32(scratch[0:4], uint32(hdrLen))

	last := &p.steps[len(p.steps)-1]
	if last.Transmit != nil {
		last.Transmit(ev, scratch)
	} else {
		p.terminal(ev, scratch)
	}
	for _, post := range p.posts {
		post(ev)
	}
	p.stats.Fast++
	return true
}
