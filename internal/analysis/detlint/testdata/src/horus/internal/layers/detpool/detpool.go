// Package detpool: no marker vouches for a pool. The only opt-out is
// the wallclock one, which takes a whole bridge package out of scope.
//
//horus:pool — fixture
package detpool

import "sync"

// recycled is flagged like any other pool in sim-driven code: the
// file-level //horus:pool marker above the package clause exempts
// nothing.
var recycled = sync.Pool{New: func() interface{} { return new([64]byte) }} // want `sync\.Pool reuse order depends on GC timing`

// Borrow hands out a pooled buffer.
func Borrow() *[64]byte { return recycled.Get().(*[64]byte) }

// Return recycles it.
func Return(b *[64]byte) { recycled.Put(b) }
