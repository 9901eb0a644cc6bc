// Package merge implements the MERGE layer: automatic view merging,
// property P16 of Table 3.
//
// MBRSHIP below it can merge views when told to (the merge downcall),
// but after a partition heals somebody must notice that two views of
// the same group coexist. MERGE does the noticing: each view's
// coordinator periodically broadcasts a locate beacon beyond its view
// (Figure 1's "resource location" protocol type); a coordinator that
// hears a beacon from an *older* coordinator requests a merge into it,
// so concurrent views collapse deterministically toward the oldest
// surviving coordinator — the same age rule MBRSHIP's flush election
// uses. Denied or lost requests retry on the next beacon.
//
// Properties: requires P1, P3, P4, P8, P9, P10, P11, P12, P15;
// provides P16.
package merge

import (
	"fmt"
	"time"

	"horus/internal/core"
	"horus/internal/wire"
)

// BeaconPeriod is the beacon interval.
const BeaconPeriod = 100 * time.Millisecond

// New returns a MERGE layer.
func New() core.Layer { return &Merge{} }

// Merge is one MERGE layer instance.
type Merge struct {
	core.Base
	view      *core.View
	attempted core.EndpointID   // last merge target, to avoid hammering
	beacon    core.Timer[Merge] // the beacon round (beaconTick)
	stats     Stats
}

// Stats counts MERGE activity.
type Stats struct {
	BeaconsSent  int
	BeaconsHeard int
	MergesAsked  int
}

// Name implements core.Layer.
func (m *Merge) Name() string { return "MERGE" }

// Stats returns a snapshot of the layer's counters.
func (m *Merge) Stats() Stats { return m.stats }

// Init implements core.Layer.
func (m *Merge) Init(c *core.Context) error {
	if err := m.Base.Init(c); err != nil {
		return err
	}
	m.beacon.Bind(c, m, (*Merge).beaconTick)
	m.beacon.Reset(BeaconPeriod)
	return nil
}

// Down implements core.Layer.
func (m *Merge) Down(ev *core.Event) {
	switch ev.Type {
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("MERGE: beacons=%d heard=%d asked=%d",
			m.stats.BeaconsSent, m.stats.BeaconsHeard, m.stats.MergesAsked))
		m.Ctx.Down(ev)
	default:
		m.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (m *Merge) Up(ev *core.Event) {
	switch ev.Type {
	case core.UView:
		m.view = ev.View
		m.attempted = core.EndpointID{}
		m.Ctx.Up(ev)
	case core.ULocate:
		m.hearBeacon(ev)
	case core.UMergeDenied:
		// Busy peer; the next beacon retries. Still reported upward.
		m.attempted = core.EndpointID{}
		m.Ctx.Up(ev)
	default:
		m.Ctx.Up(ev)
	}
}

// beaconTick broadcasts this view's identity if we coordinate it.
func (m *Merge) beaconTick() {
	m.beacon.Reset(BeaconPeriod)
	if m.view == nil || m.view.Oldest() != m.Ctx.Self() {
		return
	}
	beacon := core.NewDowncall(core.DLocate, nil, 0)
	wire.PushViewID(beacon.Msg, m.view.ID)
	wire.PushEndpointID(beacon.Msg, m.Ctx.Self())
	m.stats.BeaconsSent++
	m.Ctx.Down(beacon)
}

// hearBeacon reacts to another view's beacon.
func (m *Merge) hearBeacon(ev *core.Event) {
	coord := wire.PopEndpointID(ev.Msg)
	viewID := wire.PopViewID(ev.Msg)
	m.stats.BeaconsHeard++
	if m.view == nil || m.view.Contains(coord) || coord == m.Ctx.Self() {
		return
	}
	if m.view.Oldest() != m.Ctx.Self() {
		return // only our coordinator merges
	}
	// Deterministic direction: the younger coordinator requests a
	// merge into the older one, so the oldest coordinator absorbs all.
	if !coord.Older(m.Ctx.Self()) {
		return
	}
	if !m.attempted.IsZero() {
		return // one merge attempt at a time; retry next beacon
	}
	m.attempted = coord
	m.stats.MergesAsked++
	m.Ctx.Tracef("merge %s: view %v requesting merge into %v", m.Ctx.Self(), m.view.ID, viewID)
	m.Ctx.Down(&core.Event{Type: core.DMerge, Detail: &core.Detail{Contact: coord}})
}
