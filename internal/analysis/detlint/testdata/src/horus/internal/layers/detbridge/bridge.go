// Package detbridge is a mixed package: this file is a marked
// wall-clock bridge, caller.go next door is not. Inside one package the
// unmarked file reaches every banned read here through a helper call,
// a method value, a defer or a func-typed field, so detlint reports the
// mix itself instead of chasing the calls.
//
//horus:wallclock — fixture: the marked half of a mixed package.
package detbridge

import (
	"math/rand"
	"time"
)

// Bridge wraps wall-clock access the way udpnet and chaosnet do.
type Bridge struct{}

// WallNow is the helper-call shape: a banned read one level down.
func (b *Bridge) WallNow() time.Time { return time.Now() }

// wallDeep adds a second level for the deep-chain variant.
func (b *Bridge) wallDeep() time.Time { return b.WallNow() }

// Elapsed launders time.Since.
func (b *Bridge) Elapsed(t0 time.Time) time.Duration { return time.Since(t0) }

// Draw launders the global rand source.
func (b *Bridge) Draw() int { return rand.Intn(10) }

// Clock is the func-typed struct field shape: Src is bound to
// time.Now here and invoked from caller.go.
type Clock struct {
	Src func() time.Time
}

// NewClock builds the laundered clock.
func NewClock() *Clock { return &Clock{Src: time.Now} }
