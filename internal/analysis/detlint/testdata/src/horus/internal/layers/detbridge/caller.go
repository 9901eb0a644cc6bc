// caller.go is not marked, so the package mixes a bridge with
// sim-driven code: one finding, here, naming bridge.go. The calls
// below reach bridge.go's banned reads, and none is reported on its
// own.
package detbridge // want `package detbridge mixes a wall-clock bridge with sim-driven code: bridge\.go is marked //horus:wallclock and this file is not`

import "time"

// UseHelper is the plain helper-call shape.
func UseHelper(b *Bridge) time.Time {
	return b.WallNow()
}

// UseDeep reaches the read two calls down.
func UseDeep(b *Bridge) time.Time {
	return b.wallDeep()
}

// UseMethodValue is the method-value shape: the banned read hides
// behind a func-typed local.
func UseMethodValue(b *Bridge) time.Time {
	f := b.WallNow
	return f()
}

// UseDefer is the defer shape.
func UseDefer(b *Bridge) {
	defer b.WallNow()
}

// UseField is the func-typed struct field shape: Src was bound to
// time.Now in bridge.go.
func UseField() time.Time {
	c := NewClock()
	return c.Src()
}

// UseRand launders the global rand draw.
func UseRand(b *Bridge) int {
	return b.Draw()
}

// UseElapsed launders time.Since behind the bridge.
func UseElapsed(b *Bridge, t0 time.Time) time.Duration {
	return b.Elapsed(t0)
}

// CleanDuration uses time plumbing only.
func CleanDuration(d time.Duration) time.Duration { return d * 2 }
