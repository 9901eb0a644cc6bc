// Package sumfix exercises the summary engine: each function is a
// named shape the engine test asserts exact facts for. No want
// comments here — the test interrogates summaries directly.
package sumfix

import (
	"strings"
	"time"
)

// Counter is the receiver used throughout.
type Counter struct {
	n    int
	hook func() int
}

// PureAdd has no effects at all.
func PureAdd(a, b int) int {
	c := a + b
	return c * 2
}

// PureString calls stdlib that reads neither clock nor rand.
func PureString(s string) string {
	return strings.ToUpper(strings.TrimSpace(s))
}

// poke writes through its parameter.
func poke(t *Counter) { t.n = 7 }

// PokeLocal mutates state, which the engine does not track.
func PokeLocal() int {
	t := &Counter{}
	poke(t)
	return t.n
}

// CaptureMutate mutates a local through a closure called in place.
func CaptureMutate() int {
	total := 0
	add := func(v int) { total += v }
	add(3)
	add(4)
	return total
}

// Iface is dispatched through, never devirtualized: CallIface stays
// clean although the one implementation here reads the clock.
type Iface interface{ Do() }

type clockIface struct{}

func (clockIface) Do() { _ = time.Now() }

func CallIface(i Iface) { i.Do() }

// Clock launders time.Now through a method value stored in a local.
func Clock() int64 {
	now := time.Now
	return now().UnixNano()
}

// ClockField launders time.Now through a func-typed struct field.
type ticker struct{ src func() time.Time }

func ClockField() int64 {
	t := ticker{src: time.Now}
	return t.src().UnixNano()
}

// ClockDefer reads the clock from a deferred call.
func ClockDefer() {
	defer func() { _ = time.Now() }()
}

// clockInner is the level-2 helper.
func clockInner() time.Time { return time.Now() }

// clockMiddle is the level-1 helper.
func clockMiddle() time.Time { return clockInner() }

// ClockDeep reads the clock two calls down.
func ClockDeep() time.Time { return clockMiddle() }

// HookCall calls through a func field bound package-wide to pureHook:
// resolvable, so the summary stays clean.
func pureHook() int { return 42 }

func NewCounter() *Counter { return &Counter{hook: pureHook} }

func (c *Counter) CallHook() int { return c.hook() }

// Recurse is mutually recursive with recurseB and reads the clock at
// the bottom; the SCC fixpoint must terminate with the fact present.
func (c *Counter) Recurse(depth int) {
	if depth <= 0 {
		c.n = int(time.Now().Unix())
		return
	}
	c.recurseB(depth - 1)
}

func (c *Counter) recurseB(depth int) { c.Recurse(depth) }
