package nak

import (
	"fmt"
	"testing"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/message"
)

// TestLastHeardStaysInTheView cycles incarnations of one slot through
// views while raw packets arrive from members and from others. The
// silence clocks must cover exactly the current view's members, however
// many incarnations have come and gone and whoever else has spoken, and
// no one outside the view keeps a record: a raw packet opens no stream.
func TestLastHeardStaysInTheView(t *testing.T) {
	const incarnations = 50
	peer := layertest.ID("peer", 2)
	inc := func(i int) core.EndpointID { return layertest.ID("slot", uint64(100+i)) }
	for _, tc := range []struct {
		name string
		// speakers send one packet each while incarnation i is in the view
		speakers func(i int) []core.EndpointID
	}{
		{"members only", func(i int) []core.EndpointID { return []core.EndpointID{peer, inc(i)} }},
		{"the next incarnation before its view", func(i int) []core.EndpointID { return []core.EndpointID{inc(i), inc(i + 1)} }},
		{"the dead incarnation after its view", func(i int) []core.EndpointID { return []core.EndpointID{inc(i - 1), peer} }},
		{"a stranger per view", func(i int) []core.EndpointID { return []core.EndpointID{layertest.ID(fmt.Sprint("x", i), 9)} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := layertest.New(t, NewWith(WithStatusPeriod(0), WithNakResend(0)))
			l := h.G.Focus("NAK").(*Nak)
			for i := 0; i < incarnations; i++ {
				v := h.InstallView(h.Self(), peer, inc(i))
				for _, src := range tc.speakers(i) {
					m := message.New(nil)
					m.PushUint8(kindRaw)
					h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: src})
				}
				for _, m := range v.Members {
					if p := l.peers[m]; p == nil || !p.member {
						t.Fatalf("view %d: member %v has no silence clock", i, m)
					}
				}
				clocks := 0
				for _, p := range l.peers {
					if p.member {
						clocks++
					}
				}
				if clocks != len(v.Members) {
					t.Fatalf("view %d of %d members: %d silence clocks", i, len(v.Members), clocks)
				}
				for _, src := range tc.speakers(i) {
					if p := l.peers[src]; p != nil && !p.member {
						t.Fatalf("view %d: %v, outside the view, has a record", i, src)
					}
				}
			}
		})
	}
}
