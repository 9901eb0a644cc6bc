package core

import "encoding/binary"

// This file implements the §10 cast fast path: a per-stack compiled
// send plan that renders the entire downward traversal of a cast into
// one contiguous wire image, written front to back into a reused
// scratch buffer, instead of per-layer push/pop through the Message
// object. It is the compacted-header idea of message/compact.go scaled
// from one layer's fields to the whole stack: at composition time every
// layer declares the fixed width of its cast header (CompileCast), the
// plan derives offsets for the concatenation, and at cast time a single
// pass fills the slots and hands the finished wire to the transport.
//
// The per-layer path is retained unchanged as the always-available
// reference implementation: a plan only exists when every layer of an
// outer stack compiles and COM transmits at its bottom, and it then
// carries every cast. Layers whose cast behaviour depends on the cast
// (MBRSHIP's gate and view tag, FRAG's size split) and SWITCH segments
// have no compiled form, so their stacks run the reference path. The
// differential suite in internal/integration pins byte-identical wire
// output between the two paths.
//
// Lifetime: a plan is derived once per stack (newStack) and never
// mutated. All execution happens on the endpoint's event queue, so the
// scratch buffer needs no locking.

// CastCompiler is the optional layer interface behind the compiled
// send plan. A layer that implements it describes its cast-downcall
// behaviour declaratively.
//
// Compiling is a promise: for every cast, the compiled form must write
// exactly the bytes the layer's Down would have pushed and perform
// exactly the side effects it would have performed, in the same order
// relative to transmission. CompileCast is called once, after Init.
type CastCompiler interface {
	CompileCast() CompiledCast
}

// CastFrame is the view a compiled layer gets of one cast: its own
// header slot plus the message exactly as the layer would have received
// it on the reference path — Hdr holds the headers pushed by the layers
// above (ending with the application's own pushed bytes) and Body the
// payload. All three slices alias the plan's scratch buffer; they are
// valid only for the duration of the Fill call.
type CastFrame struct {
	Own  []byte // this layer's header slot, front first
	Hdr  []byte // headers above this layer, as received
	Body []byte // payload, as received
}

// CompiledCast is one layer's compiled cast-send behaviour.
type CompiledCast struct {
	// Width is the fixed byte width of the layer's cast header.
	Width int

	// Static, when non-nil, is the header verbatim — precomputed at
	// compile time for layers whose cast header does not depend on the
	// cast (COM's source address, HBEAT's kind byte). Its length is the
	// width, and Fill is not called.
	Static []byte

	// Fill writes the layer's header into f.Own and performs the
	// layer's per-cast bookkeeping (counters, sequence assignment,
	// retained copies). It cannot decline the cast.
	Fill func(f *CastFrame)

	// Transmit hands the finished wire image to the transport. Exactly
	// the bottom layer of the stack provides it (COM); the wire slice
	// aliases the plan's scratch buffer and must not be retained after
	// the call returns — the same contract Transport.Send documents.
	Transmit func(ev *Event, wire []byte)
}

// PlanStats counts fast-path outcomes for one stack, so tests can
// prove the compiled path actually ran (or deliberately didn't).
type PlanStats struct {
	// Fast counts casts handled by the compiled plan.
	Fast uint64
}

// castPlan is the compiled send plan of one stack.
type castPlan struct {
	steps  []CompiledCast // one per layer, top first
	hdrLen int            // Σ widths: the stack's cast header bytes

	// Per-cast working state. Plans execute only on the endpoint's
	// event queue, so reuse is safe and keeps the hot path at zero
	// allocations.
	scratch []byte
	frame   CastFrame
	stats   PlanStats
}

// compileCastPlan derives the send plan for layers (top first). It
// returns nil when any layer does not compile or when a layer other
// than the bottom one transmits, or the bottom one does not: those
// stacks use the reference path exclusively.
func compileCastPlan(layers []Layer) *castPlan {
	p := &castPlan{}
	for i, l := range layers {
		comp, ok := l.(CastCompiler)
		if !ok {
			return nil
		}
		cc := comp.CompileCast()
		if (cc.Transmit != nil) != (i == len(layers)-1) {
			return nil
		}
		if cc.Static != nil {
			cc.Width = len(cc.Static)
		}
		p.steps = append(p.steps, cc)
		p.hdrLen += cc.Width
	}
	if len(p.steps) == 0 {
		return nil
	}
	return p
}

// execute sends one cast through the compiled plan. The flat wire image
// is filled back to front: the scratch buffer is laid out as
// [u32 hdrlen][headers][body], every layer's slot is written exactly
// once, and lower layers (written later) see the finished bytes of
// everything above them, just as the reference path's push order
// guarantees.
func (p *castPlan) execute(ev *Event) {
	appHdr, appBody := ev.Msg.Header(), ev.Msg.Body()
	hdrLen := len(appHdr) + p.hdrLen
	total := 4 + hdrLen + len(appBody)
	if cap(p.scratch) < total {
		p.scratch = make([]byte, total+total/2)
	}
	scratch := p.scratch[:total]
	bodyStart := total - len(appBody)
	copy(scratch[bodyStart:], appBody)
	hdrStart := bodyStart - len(appHdr)
	copy(scratch[hdrStart:], appHdr)

	body := scratch[bodyStart:]
	for i := range p.steps {
		cc := &p.steps[i]
		recvHdr := scratch[hdrStart:bodyStart]
		hdrStart -= cc.Width
		own := scratch[hdrStart : hdrStart+cc.Width]
		if cc.Static != nil {
			copy(own, cc.Static)
			continue
		}
		p.frame = CastFrame{Own: own, Hdr: recvHdr, Body: body}
		cc.Fill(&p.frame)
	}
	binary.BigEndian.PutUint32(scratch[0:4], uint32(hdrLen))

	p.steps[len(p.steps)-1].Transmit(ev, scratch)
	p.stats.Fast++
}
