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
	"horus/internal/core"
	"horus/internal/layers/mbrship"
)

// New returns a BMS layer with default configuration.
func New() core.Layer { return NewWith()() }

// NewWith returns a factory with MBRSHIP's options applied.
func NewWith(opts ...mbrship.Option) core.Factory {
	base := []mbrship.Option{
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
func NewAutoConsent(opts ...mbrship.Option) core.Factory {
	base := []mbrship.Option{
		mbrship.WithoutFlush(),
		mbrship.WithName("BMS"),
	}
	return mbrship.NewWith(append(base, opts...)...)
}
