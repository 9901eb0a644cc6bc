package main

import (
	"strings"
	"time"
)

// The ladder runs one short, fault-free load on every suffix of the
// workload's stack that builds — COM, NAK:COM, ... up to the whole
// stack — and reports each layer's marginal cost as the difference
// between the suffix that starts with it and the suffix below. Counts
// on netsim repeat exactly for a seed, so the differences are exact.

type ladderStep struct {
	allocs float64 // marginal heap allocations per delivery
	wire   float64 // marginal wire bytes per application byte

	// The "_" entry carries the ladder's own operations instead.
	attempted int64
	fail      failures
}

// runLadder returns the marginal costs keyed by lower-case layer name,
// plus a "_" entry with the operations the ladder attempted.
func runLadder(w *workload, seed int64, ref *outcome) (map[string]ladderStep, error) {
	names := ref.names
	body := w.body
	if body < payloadMin {
		body = payloadMin
	}
	out := make(map[string]ladderStep)
	var ops ladderStep
	var below ladderStep // absolute cost of the suffix below the current layer
	for i := len(names) - 1; i >= 0; i-- {
		desc := strings.Join(names[i:], ":")
		if _, err := buildStack(desc); err != nil {
			continue // not a well-formed stack: its cost stays with the next layer up
		}
		lw := &workload{name: "ladder/" + desc, stack: desc, kind: simLoad, link: lossless,
			groups: 1, members: 4, body: body, rate: 500,
			fabricPerSecond: 1, warmup: 500 * time.Millisecond, drain: 2 * time.Second}
		o, err := runSim(lw, runOpts{seed: seed, seconds: 2, setups: 1})
		if err != nil {
			return nil, err
		}
		abs := ladderStep{allocs: o.ph.allocsPerDelivery(), wire: o.ph.wireBytesPerAppByte()}
		out[strings.ToLower(names[i])] = ladderStep{allocs: abs.allocs - below.allocs, wire: abs.wire - below.wire}
		below = abs
		ops.attempted += o.attempted
		ops.fail.add(o.fail)
	}
	out["_"] = ops
	return out, nil
}
