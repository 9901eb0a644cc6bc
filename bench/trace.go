package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"horus/bench/probe"
	"horus/internal/core"
	"horus/internal/property"
	"horus/internal/stackreg"
)

// probedLayers are the layers every per-layer metric family is
// reported for; a stack that lacks one reports zeros for it.
var probedLayers = []string{"total", "mbrship", "frag", "nak", "com"}

// traceShare is the part of the measure phase a traced run covers.
const traceShare = 0.1

// layerRow is one line of the per-layer table printed for a traced
// run: the §10 analysis of the stack.
type layerRow struct {
	Layer                     string  `json:"layer"`
	DownSelfNsPerCast         float64 `json:"down_self_ns_per_cast"`
	UpSelfNsPerDelivery       float64 `json:"up_self_ns_per_delivery"`
	HdrBytesPerCast           float64 `json:"hdr_bytes_per_cast"`
	OriginatedBytesPerAppByte float64 `json:"originated_bytes_per_app_byte"`
	MarginalAllocsPerDelivery float64 `json:"marginal_allocs_per_delivery"`
}

func printLayerTable(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "   -- per-layer table, %s (per application cast / delivery)\n", r.Stack)
	fmt.Fprintf(w, "   %-8s %12s %12s %10s %18s %16s\n", "layer", "ns down", "ns up", "hdr B", "originated B/app B", "marginal allocs")
	for _, row := range r.Table {
		fmt.Fprintf(w, "   %-8s %12.1f %12.1f %10.2f %18.4f %16.2f\n", row.Layer, row.DownSelfNsPerCast,
			row.UpSelfNsPerDelivery, row.HdrBytesPerCast, row.OriginatedBytesPerAppByte, row.MarginalAllocsPerDelivery)
	}
}

// runTraced produces the per-layer metrics of one workload: an untraced
// reference run and a probed run of the same first tenth of the
// measure phase, the ladder over the stack's suffixes, and the replay.
func runTraced(m *metricSet, res *workloadResult, w *workload, o runOpts, spansOut string) (*outcome, error) {
	short := o
	short.seconds, short.setups, short.traced = o.seconds*traceShare, 1, false
	ref, err := runOnce(w, short)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	short.traced = true
	u0, s0 := cpuTimes()
	tr, err := runOnce(w, short)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	u1, s1 := cpuTimes()
	tracedCPU := (u1 - u0) + (s1 - s0)

	// The probed stack takes the reference path; every member must
	// still deliver what it delivered untraced, in the same order.
	if len(ref.counts) != len(tr.counts) {
		tr.fail.Violation++
	}
	for i := range ref.counts {
		if i < len(tr.counts) && (ref.counts[i] != tr.counts[i] || ref.hashes[i] != tr.hashes[i]) {
			tr.fail.Violation++
		}
	}
	for _, r := range tr.recs {
		if r.Dropped > 0 {
			return nil, fmt.Errorf("span buffer full: %d spans dropped", r.Dropped)
		}
		if err := probe.CheckNesting(r); err != nil {
			return nil, err
		}
	}
	if spansOut != "" {
		if err := writeSpans(spansOut, tr.recs); err != nil {
			return nil, err
		}
	}

	rep := probe.Analyze(tr.recs)
	casts, deliveries := float64(tr.total.casts), float64(tr.total.deliveries)
	appBytes := float64(tr.total.appBytes)
	hdr := rep.HeaderBytes()
	ladder, err := runLadder(w, o.seed, ref)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	byName := make(map[string]int)
	for i, l := range rep.Layers {
		byName[strings.ToLower(l.Name)] = i
	}
	for _, name := range probedLayers {
		var l probe.LayerReport
		var h int64
		if i, ok := byName[name]; ok {
			l, h = rep.Layers[i], hdr[i]
		}
		row := layerRow{Layer: strings.ToUpper(name),
			DownSelfNsPerCast:         ratio(float64(l.DownSelfNs), casts),
			UpSelfNsPerDelivery:       ratio(float64(l.UpSelfNs), deliveries),
			HdrBytesPerCast:           ratio(float64(h), casts),
			OriginatedBytesPerAppByte: ratio(float64(l.OriginatedBytes), appBytes),
			MarginalAllocsPerDelivery: ladder[name].allocs}
		m.set(name+".down_self_ns_per_cast", row.DownSelfNsPerCast, int(l.DownEvents))
		m.set(name+".up_self_ns_per_delivery", row.UpSelfNsPerDelivery, int(l.UpEvents))
		m.set(name+".down_events_per_cast", ratio(float64(l.DownEvents), casts), int(l.DownEvents))
		m.set(name+".up_events_per_delivery", ratio(float64(l.UpEvents), deliveries), int(l.UpEvents))
		m.set(name+".hdr_bytes_per_cast", row.HdrBytesPerCast, int(casts))
		m.set(name+".originated_pkts_per_cast", ratio(float64(l.OriginatedPkts), casts), int(l.OriginatedEvents))
		m.set(name+".originated_bytes_per_app_byte", row.OriginatedBytesPerAppByte, int(l.OriginatedEvents))
		m.set(name+".marginal_allocs_per_delivery", row.MarginalAllocsPerDelivery, 1)
		m.set(name+".marginal_wire_bytes_per_app_byte", ladder[name].wire, 1)
		if _, ok := byName[name]; ok {
			res.Table = append(res.Table, row)
		}
	}
	sort.SliceStable(res.Table, func(i, j int) bool {
		return byName[strings.ToLower(res.Table[i].Layer)] < byName[strings.ToLower(res.Table[j].Layer)]
	})

	hold := func(metric, layer string, up bool, p float64) {
		var s []int64
		if i, ok := byName[layer]; ok {
			s = rep.Layers[i].DownHoldNs
			if up {
				s = rep.Layers[i].UpHoldNs
			}
		}
		m.set(metric, quantileOfMs(s, p), len(s))
	}
	hold("total.down_hold_ms_p50", "total", false, 0.50)
	hold("total.down_hold_ms_p99", "total", false, 0.99)
	hold("mbrship.down_hold_ms_p99", "mbrship", false, 0.99)
	hold("frag.up_hold_ms_p99", "frag", true, 0.99)
	hold("nak.up_hold_ms_p99", "nak", true, 0.99)

	// Layer counters, from the reference run: what the layers did
	// untraced, over the whole run (formation and warm-up included).
	st := ref.stats
	rc, rd := float64(ref.total.casts), float64(ref.total.deliveries)
	received := float64(st.com.Received)
	m.set("nak.retransmits_per_data_pkt", ratio(float64(st.nak.Retransmits), float64(st.nak.DataSent)), st.nak.DataSent)
	m.set("nak.naks_per_data_pkt", ratio(float64(st.nak.NaksSent), float64(st.nak.DataSent)), st.nak.DataSent)
	m.set("nak.status_pkts_per_s", ratio(float64(st.nak.StatusSent), ref.fabricSpan.Seconds()), st.nak.StatusSent)
	m.set("nak.duplicate_share", ratio(float64(st.nak.Duplicates), received), st.com.Received)
	m.set("nak.out_of_order_share", ratio(float64(st.nak.OutOfOrder), received), st.com.Received)
	m.set("nak.lost_reported", float64(st.nak.LostReported), 1)
	m.set("nak.problems_raised", float64(st.nak.ProblemsRaised), 1)
	m.set("frag.fragments_per_cast", ratio(float64(st.frag.Fragments), rc), int(rc))
	m.set("frag.reassembled_per_delivery", ratio(float64(st.frag.Reassembled), rd), int(rd))
	m.set("total.requests_per_cast", ratio(float64(st.total.Requests), rc), int(rc))
	m.set("total.token_ops_per_cast", ratio(float64(st.total.TokenOps), rc), int(rc))
	m.set("total.resubmits", float64(st.total.Resubmits), 1)
	m.set("mbrship.views_installed", float64(st.mbrship.ViewsInstalled), 1)
	m.set("mbrship.flush_rounds", float64(st.mbrship.FlushRounds), 1)
	m.set("mbrship.fwds_sent", float64(st.mbrship.FwdsSent), 1)
	m.set("mbrship.stale_dropped", float64(st.mbrship.StaleDropped), 1)
	m.set("mbrship.merges_granted", float64(st.mbrship.MergesGranted), 1)
	m.set("com.sent_per_cast", ratio(float64(st.com.Sent), rc), int(rc))
	m.set("com.filtered", float64(st.com.Filtered), 1)

	detect, flush := churnSpanTimes(tr, byName)
	m.set("nak.detect_ms_p50", quantileOfMs(detect, 0.50), len(detect))
	m.set("mbrship.flush_ms_p50", quantileOfMs(flush, 0.50), len(flush))
	churnViewMetrics(m, ref)

	rp, err := runReplay(o.seed)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	m.set("core.fast_cast_share", ratio(float64(ref.fastCasts), rc), int(rc))
	m.set("core.malformed", float64(ref.malformed+tr.malformed), 1)
	m.set("core.cast_ns", rp.castNs, rp.n)
	m.set("core.cast_allocs", rp.castAllocs, rp.n)
	m.set("core.deliver_ns_per_pkt", rp.deliverNs, rp.n)
	m.set("core.deliver_allocs_per_pkt", rp.deliverAllocs, rp.n)
	m.set("core.outside_span_cpu_share", 1-ratio(float64(rep.SelfNs), float64(tracedCPU)), rep.Spans)
	m.set("message.marshal_ns_per_pkt", rp.marshalNs, rp.n)
	m.set("message.unmarshal_ns_per_pkt", rp.unmarshalNs, rp.n)
	m.set("message.unmarshal_allocs_per_pkt", rp.unmarshalAllocs, rp.n)

	// What is left of the reference run's CPU once the replayed send
	// and receive paths are taken out, per packet: the fabric, the
	// executor and the benchmark itself — and, on stacks taller than
	// the waist the replay uses, the layers above it.
	measCasts, measPkts := float64(ref.ph.casts()), float64(ref.ph.wirePkts())
	residual := ratio(float64(ref.ph.cpu())-measCasts*rp.castNs-measPkts*rp.deliverNs, measPkts)
	simResidual, udpResidual := residual, 0.0
	if w.kind == udpLoad {
		simResidual, udpResidual = 0, residual
	}
	m.set("netsim.pkts_per_cast", ratio(float64(ref.sim.Sent), measCasts), int(measCasts))
	m.set("netsim.bytes_per_cast", ratio(float64(ref.sim.Bytes), measCasts), int(measCasts))
	m.set("netsim.lost_share", ratio(float64(ref.sim.Lost), float64(ref.sim.Sent)), ref.sim.Sent)
	m.set("netsim.residual_ns_per_pkt", simResidual, int(measPkts))
	m.set("udpnet.send_errors", float64(ref.udp.SendErrors), 1)
	m.set("udpnet.malformed", float64(ref.udp.Malformed), 1)
	m.set("udpnet.sys_cpu_share", ref.ph.sysShare(), slices)
	m.set("udpnet.residual_ns_per_pkt", udpResidual, int(measPkts))

	buildUs, deriveUs := timeStackBuild(w.stack)
	m.set("stackreg.build_us", buildUs, buildReps)
	m.set("property.derive_us", deriveUs, buildReps)
	q, mean, n := latencyStats(ref.lat, 0.95, 0.99)
	m.set("bench.latency_mean_ms", mean, n)
	m.set("bench.latency_p95_ms", q[0], n)
	m.set("bench.latency_p99_ms", q[1], n)
	m.set("bench.gen_lateness_ms_p99", quantileOfMs(ref.lateness, 0.99), len(ref.lateness))
	m.set("bench.trace_overhead_ratio",
		ratio(ratio(float64(tr.ph.cpu()), float64(tr.ph.deliveries())), ratio(float64(ref.ph.cpu()), float64(ref.ph.deliveries()))),
		int(tr.ph.deliveries()))

	// Both runs' operations count.
	tr.attempted += ref.attempted + ladder["_"].attempted
	tr.fail.add(ref.fail)
	tr.fail.add(ladder["_"].fail)
	return tr, nil
}

// quantileOfMs is the nearest-rank p-quantile of ns samples, in ms.
func quantileOfMs(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	v, _ := percentile(s, p)
	return float64(v) / 1e6
}

// churnViewMetrics reports crash→view and join→view. They are what a
// user of a churning group sees, but only one workload has them, and a
// contract metric must exist on every workload, so they are published
// with the per-layer metrics (and printed, unbounded, after an
// untraced run).
func churnViewMetrics(m *metricSet, out *outcome) {
	m.set("churn.crash_view_p50_ms", quantileOfMs(out.crashView, 0.50), len(out.crashView))
	m.set("churn.crash_view_p90_ms", quantileOfMs(out.crashView, 0.90), len(out.crashView))
	m.set("churn.join_view_p50_ms", quantileOfMs(out.joinView, 0.50), len(out.joinView))
	m.set("churn.join_view_p90_ms", quantileOfMs(out.joinView, 0.90), len(out.joinView))
}

// churnSpanTimes derives, from a traced churn run, crash → first
// PROBLEM leaving NAK at any survivor, and per endpoint the time from
// the first PROBLEM (or merge downcall) entering MBRSHIP since its
// last view to the VIEW leaving it.
func churnSpanTimes(tr *outcome, byName map[string]int) (detect, flush []int64) {
	nakIx, okN := byName["nak"]
	mbrIx, okM := byName["mbrship"]
	if !okM {
		return nil, nil
	}
	crashes := append([]int64(nil), tr.crashAt...)
	sort.Slice(crashes, func(a, b int) bool { return crashes[a] < crashes[b] })
	first := make([]int64, len(crashes)) // earliest PROBLEM out of NAK after crash i
	for _, r := range tr.recs {
		pending := int64(-1) // fabric time the current membership change began at this endpoint
		for i := range r.Spans {
			s := &r.Spans[i]
			switch {
			case okN && s.Dir == probe.Up && int(s.Layer) == nakIx-1 && s.Type == core.UProblem:
				// Attribute to the latest crash before it.
				k := sort.Search(len(crashes), func(k int) bool { return crashes[k] > s.Fabric }) - 1
				if k >= 0 && (first[k] == 0 || s.Fabric < first[k]) {
					first[k] = s.Fabric
				}
			}
			switch {
			case int(s.Layer) == mbrIx && pending < 0 &&
				((s.Dir == probe.Up && s.Type == core.UProblem) || (s.Dir == probe.Down && s.Type == core.DMerge)):
				pending = s.Fabric
			case int(s.Layer) == mbrIx-1 && s.Dir == probe.Up && s.Type == core.UView:
				if pending >= 0 {
					flush = append(flush, s.Fabric-pending)
				}
				pending = -1
			}
		}
	}
	for k, t := range first {
		if t > 0 {
			detect = append(detect, t-crashes[k])
		}
	}
	return detect, flush
}

const buildReps = 200

// timeStackBuild returns the median wall time of stackreg.Build and of
// property.Derive for the stack string, in µs.
func timeStackBuild(desc string) (buildUs, deriveUs float64) {
	names := property.ParseStack(desc)
	net := property.P1 | property.ExternalViews
	b, d := make([]float64, buildReps), make([]float64, buildReps)
	for i := 0; i < buildReps; i++ {
		t0 := time.Now()
		_, err := stackreg.Build(desc, net)
		b[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		t0 = time.Now()
		_, err2 := property.Derive(net, names)
		d[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil || err2 != nil {
			return 0, 0
		}
	}
	return median(b), median(d)
}

func writeSpans(path string, recs []*probe.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, r := range recs {
		if err := r.WriteJSON(bw, fmt.Sprintf("ep%d", i)); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
