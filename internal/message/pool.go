// Pooled message buffers (paper §10).
//
// The paper's overhead analysis proposes that the cast hot path should
// allocate nothing: message objects are drawn from a pool and returned
// to it once the send path is done with them. This file implements the
// pool with an explicit ownership hand-off: a message obtained from Get
// is owned by the caller until it is passed to a cast downcall, after
// which the fast path (core's compiled cast plan) releases it back to
// the pool once the wire image has left the stack. Compiled layers
// never retain the original message — retransmission and delivery
// logs keep independent copies (FromParts; Clone of a pooled message
// copies likewise) — which is what makes the automatic release sound.
//
// Misuse is a programming error and panics loudly: releasing a message
// twice, or pushing/popping/marshalling after release, would silently
// corrupt whatever cast the pool handed the buffer to next.
//
//horus:pool — the pool is behaviour-transparent: a message's observable
// content never depends on whether its buffer came from the pool or
// from make, so simulation determinism is preserved.

package message

import "sync"

// pool recycles Message objects together with their headroom buffers.
// Buffers grown by deep stacks stay grown across reuse, so the steady
// state of a cast loop touches the allocator not at all.
var pool = sync.Pool{
	New: func() interface{} {
		return &Message{buf: make([]byte, defaultHeadroom)}
	},
}

// Get returns a pooled message whose payload references body without
// copying, like New. The caller owns the message until it hands it to
// a cast downcall; from then on the stack owns it and will Release it
// automatically when the compiled fast path consumed it. On the
// reference (per-layer) path the message is left to the garbage
// collector instead — Release is an optimization, never an obligation.
func Get(body []byte) *Message {
	m := pool.Get().(*Message)
	m.off, m.own = offset(len(m.buf)), offset(len(m.buf))
	m.body, m.frozen = body, false
	m.pooled = true
	m.dead = false
	return m
}

// Pooled reports whether m came from Get and has not been released.
func (m *Message) Pooled() bool { return m.pooled && !m.dead }

// Release returns a pooled message to the pool. Releasing a message
// that did not come from Get is a no-op; releasing one twice panics
// (double-put would hand the same buffer to two concurrent casts).
func (m *Message) Release() {
	if !m.pooled {
		return
	}
	if m.dead {
		panic("message: double release of pooled message")
	}
	m.dead = true
	m.body = nil
	pool.Put(m)
}

// live panics if the message was released back to the pool. It is
// called on every mutating or reading entry point: a use-after-release
// must fail at the offending call site, not corrupt a later cast.
func (m *Message) live() {
	if m.dead {
		panic("message: use of message after release")
	}
}
