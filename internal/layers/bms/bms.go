// Package bms implements the BMS layer of Table 3: a basic membership
// service. It agrees on views (property P15) using the same flush
// coordination as MBRSHIP but does not log or redistribute unstable
// messages, so delivery across a view change is only *virtually
// semi-synchronous* (P8): all survivors install the same views, but a
// message in flight at the change may reach some survivors and not
// others.
//
// BMS exists for applications that want cheap consistent membership
// without paying for message flushing — and as the lower half of the
// decomposition BMS+FLUSH ≈ MBRSHIP, which
// TestDecomposedEqualsMonolithic verifies. BMS waits for a flush_ok
// downcall before consenting to a flush, giving the FLUSH layer above
// (or the application) the window it needs.
//
// Properties: requires P3, P4, P10, P11, P12; provides P8, P15.
package bms

import (
	"time"

	"horus/internal/core"
	"horus/internal/layers/mbrship"
)

// Option re-exports the MBRSHIP option type: BMS accepts the same
// tuning knobs.
type Option = mbrship.Option

// WithGossipPeriod sets the stability-gossip interval (unused for
// flushing in BMS, still used for failure-free liveness checks).
var WithGossipPeriod = mbrship.WithGossipPeriod

// WithFlushTimeout sets the coordinator watchdog interval.
var WithFlushTimeout = mbrship.WithFlushTimeout

// New returns a BMS layer with default configuration.
func New() core.Layer { return NewWith()() }

// NewWith returns a factory with options applied.
func NewWith(opts ...Option) core.Factory {
	base := []Option{
		mbrship.WithoutFlush(),
		mbrship.WithAppFlushOK(),
		mbrship.WithName("BMS"),
	}
	return mbrship.NewWith(append(base, opts...)...)
}

// NewAutoConsent returns a factory for BMS used *without* a FLUSH
// layer above: the layer consents to flushes by itself, so view
// changes complete with no cooperation from above (and no message
// redistribution at all).
func NewAutoConsent(opts ...Option) core.Factory {
	base := []Option{
		mbrship.WithoutFlush(),
		mbrship.WithName("BMS"),
	}
	return mbrship.NewWith(append(base, opts...)...)
}

// DefaultTimers bundles the simulation-friendly timer settings used in
// tests and examples.
func DefaultTimers() []Option {
	return []Option{
		WithGossipPeriod(40 * time.Millisecond),
		WithFlushTimeout(500 * time.Millisecond),
	}
}
