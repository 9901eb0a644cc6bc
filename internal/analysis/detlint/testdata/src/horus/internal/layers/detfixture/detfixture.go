// Package detfixture is the detlint fixture: a pretend sim-driven
// layer package (its import path puts it under horus/internal/) with
// every class of determinism escape plus the legal alternatives.
package detfixture

import (
	"math/rand"
	"sync"
	"time"
)

// buffers is a pool in sim-driven code: reuse order depends on GC
// timing.
var buffers sync.Pool // want `sync\.Pool reuse order depends on GC timing`

func flagged() {
	_ = time.Now()                 // want `wall clock escape: time\.Now`
	time.Sleep(time.Millisecond)   // want `wall clock escape: time\.Sleep`
	<-time.After(time.Millisecond) // want `wall clock escape: time\.After`
	_ = time.NewTimer(time.Second) // want `wall clock escape: time\.NewTimer`
	clock := time.Now              // want `wall clock escape: time\.Now`
	_ = clock
	_ = rand.Intn(4)      // want `global rand\.Intn`
	rand.Shuffle(1, swap) // want `global rand\.Shuffle`
	go flagged()          // want `bare goroutine`
	_ = buffers.Get()
	local := sync.Pool{New: func() interface{} { return nil }} // want `sync\.Pool reuse order depends on GC timing`
	_ = local
}

func accepted() {
	// Seeded generators are the deterministic path.
	rng := rand.New(rand.NewSource(7))
	_ = rng.Intn(4)
	// Duration arithmetic and time.Time plumbing carry no wall-clock
	// read; only the banned sources are flagged.
	const step = 5 * time.Millisecond
	var t time.Time
	_ = t.Add(step)
}

func swap(i, j int) {}
