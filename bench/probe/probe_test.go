package probe_test

import (
	"fmt"
	"testing"
	"time"

	"horus/bench/probe"
	"horus/internal/core"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/property"
	"horus/internal/stackreg"
)

const (
	members = 3
	casts   = 200
	body    = 64
)

// tag reads the test payload's sequence number; every cast body starts
// with a marker byte no wire image starts with.
func tag(b []byte) uint64 {
	if len(b) != body || b[0] != 0xB5 {
		return 0
	}
	return uint64(b[1])<<8 | uint64(b[2]) + 1
}

// cluster runs casts through a probed NAK:COM group on a lossy link, so
// that NAK originates status, NAK and retransmission traffic.
func cluster(t *testing.T) (recs []*probe.Recorder, groups []*core.Group, wireLen int, elapsed time.Duration) {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: 7, DefaultLink: netsim.Link{Delay: time.Millisecond, LossRate: 0.05}})
	spec, err := stackreg.Build("NAK:COM", property.P1|property.ExternalViews)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ids := make([]core.EndpointID, members)
	for i := 0; i < members; i++ {
		ep := net.NewEndpoint(fmt.Sprintf("p%d", i))
		ids[i] = ep.ID()
		rec := probe.NewRecorder(1<<16, start, net.Now, tag)
		ep.SetWireTap(func(dests []core.EndpointID, wire []byte) {
			if len(dests) == members {
				wireLen = len(wire)
			}
			rec.Transmitted(len(dests), len(wire))
		})
		g, err := ep.Join("probe", probe.Wrap(spec, rec), func(ev *core.Event) { rec.App(ev, func(*core.Event) {}) })
		if err != nil {
			t.Fatal(err)
		}
		recs, groups = append(recs, rec), append(groups, g)
	}
	view := core.NewView(core.ViewID{Seq: 1, Coord: ids[0]}, "probe", ids)
	for _, g := range groups {
		g.InstallView(view)
	}
	for i := 0; i < casts; i++ {
		net.At(time.Duration(i)*2*time.Millisecond, func() {
			p := make([]byte, body)
			p[0], p[1], p[2] = 0xB5, byte(i>>8), byte(i)
			groups[i%members].Cast(message.New(p))
		})
	}
	net.RunFor(2 * time.Second)
	return recs, groups, wireLen, time.Since(start)
}

func TestSpansNestPerEndpoint(t *testing.T) {
	recs, _, _, _ := cluster(t)
	for i, r := range recs {
		if r.Dropped != 0 {
			t.Fatalf("endpoint %d dropped %d spans", i, r.Dropped)
		}
		if err := probe.CheckNesting(r); err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
	}
}

// Self times partition the time spent inside spans: their sum equals
// the summed duration of the root spans and cannot exceed the run.
func TestSelfTimeAccountsForSpanTime(t *testing.T) {
	recs, _, _, elapsed := cluster(t)
	rep := probe.Analyze(recs)
	var roots int64
	for _, r := range recs {
		for i := range r.Spans {
			if r.Spans[i].Parent < 0 {
				roots += int64(r.Spans[i].Dur)
			}
		}
	}
	if rep.SelfNs != roots {
		t.Fatalf("Σ self = %d ns, Σ root spans = %d ns", rep.SelfNs, roots)
	}
	if rep.SelfNs <= 0 || rep.SelfNs > elapsed.Nanoseconds() {
		t.Fatalf("Σ self = %d ns outside (0, run %d ns]: outside-span share would leave [0,1)", rep.SelfNs, elapsed.Nanoseconds())
	}
}

func TestHeaderBytesSumToWireOverhead(t *testing.T) {
	recs, _, wireLen, _ := cluster(t)
	rep := probe.Analyze(recs)
	var sum int64
	for _, h := range rep.HeaderBytes() {
		sum += h
	}
	if want := int64(casts * (wireLen - body)); sum != want {
		t.Fatalf("Σ header bytes = %d over %d casts, want %d (wire image %d B − body %d B each)", sum, casts, want, wireLen, body)
	}
	if rep.AppPkts != casts*members {
		t.Fatalf("application packets = %d, want %d", rep.AppPkts, casts*members)
	}
}

func TestOriginatedMatchesNakCounters(t *testing.T) {
	recs, groups, _, _ := cluster(t)
	rep := probe.Analyze(recs)
	var want int64
	for _, g := range groups {
		s := probe.Unwrap(g.Focus("NAK")).(*nak.Nak).Stats()
		want += int64(s.StatusSent + s.NaksSent + s.Retransmits + s.Placeholders)
	}
	if got := rep.Layers[0].OriginatedEvents; got != want || want == 0 {
		t.Fatalf("transmissions originated by NAK = %d, NAK's own counters say %d", got, want)
	}
	if rep.Layers[1].OriginatedEvents != 0 {
		t.Fatalf("COM originated %d transmissions; nothing sits below it", rep.Layers[1].OriginatedEvents)
	}
}

// A cast NAK buffers behind a gap is held; one that arrives in order is
// not. The lossy link produces both.
func TestUpHoldSeesGapFill(t *testing.T) {
	recs, _, _, _ := cluster(t)
	holds := probe.Analyze(recs).Layers[0].UpHoldNs
	var held int
	for _, h := range holds {
		if h < 0 {
			t.Fatalf("negative hold %d", h)
		}
		if h > 0 {
			held++
		}
	}
	if held == 0 || held == len(holds) {
		t.Fatalf("%d of %d deliveries held: want some, not all", held, len(holds))
	}
}
