package main

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"horus/bench/probe"
)

// slices is how many equal parts the measure phase is cut into; the
// CPU rate is the median over them, so a slice disturbed by the host (a
// noisy neighbour, a GC cycle landing badly) does not move the result.
const slices = 10

// counters are the running totals a workload maintains while it runs.
// They are atomics because on UDP two executors and the generator
// update them concurrently; on netsim everything is one goroutine and
// the atomics are uncontended.
type counters struct {
	casts      atomic.Int64 // casts issued
	deliveries atomic.Int64 // application deliveries
	appBytes   atomic.Int64 // body bytes delivered
	wireBytes  atomic.Int64 // bytes handed to the transport, once per destination
	wirePkts   atomic.Int64 // packets handed to the transport, once per destination
}

// transmitted counts one transmission to n destinations, and charges
// it to the endpoint's open span when the run is traced.
func (c *counters) transmitted(rec *probe.Recorder, n, wireLen int) {
	c.wirePkts.Add(int64(n))
	c.wireBytes.Add(int64(n * wireLen))
	if rec != nil {
		rec.Transmitted(n, wireLen)
	}
}

// snapshot is the process and workload state at one slice boundary.
type snapshot struct {
	wall       time.Time
	user, sys  time.Duration
	mallocs    uint64
	allocBytes uint64
	casts      int64
	deliveries int64
	appBytes   int64
	wireBytes  int64
	wirePkts   int64
}

func (c *counters) snapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	user, sys := cpuTimes()
	return snapshot{
		wall: time.Now(), user: user, sys: sys,
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		casts: c.casts.Load(), deliveries: c.deliveries.Load(), appBytes: c.appBytes.Load(),
		wireBytes: c.wireBytes.Load(), wirePkts: c.wirePkts.Load(),
	}
}

// cpuTimes returns the process's user and system CPU time, every
// thread and the garbage collector included.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// phase is the measure phase as a sequence of snapshots: len = slices+1
// once complete.
type phase []snapshot

func (p phase) cpu() time.Duration {
	a, b := p[0], p[len(p)-1]
	return (b.user - a.user) + (b.sys - a.sys)
}

func (p phase) sysShare() float64 {
	a, b := p[0], p[len(p)-1]
	return ratio(float64(b.sys-a.sys), float64(p.cpu()))
}

func (p phase) deliveries() int64 { return p[len(p)-1].deliveries - p[0].deliveries }
func (p phase) casts() int64      { return p[len(p)-1].casts - p[0].casts }
func (p phase) wirePkts() int64   { return p[len(p)-1].wirePkts - p[0].wirePkts }

// deliveriesPerCPUSecond is the median over slices of deliveries per
// CPU second.
func (p phase) deliveriesPerCPUSecond() float64 {
	vals := make([]float64, 0, len(p)-1)
	for i := 1; i < len(p); i++ {
		a, b := p[i-1], p[i]
		if cpu := (b.user - a.user) + (b.sys - a.sys); cpu > 0 {
			vals = append(vals, float64(b.deliveries-a.deliveries)/cpu.Seconds())
		}
	}
	return median(vals)
}

// The count metrics are whole-phase ratios: counts carry no host noise
// for a median over slices to reject, and the whole phase averages over
// the most events.

func (p phase) allocsPerDelivery() float64 {
	a, b := p[0], p[len(p)-1]
	return ratio(float64(b.mallocs-a.mallocs), float64(b.deliveries-a.deliveries))
}

func (p phase) allocBytesPerDelivery() float64 {
	a, b := p[0], p[len(p)-1]
	return ratio(float64(b.allocBytes-a.allocBytes), float64(b.deliveries-a.deliveries))
}

func (p phase) wireBytesPerAppByte() float64 {
	a, b := p[0], p[len(p)-1]
	return ratio(float64(b.wireBytes-a.wireBytes), float64(b.appBytes-a.appBytes))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of
// sorted, and how many samples lie strictly beyond that rank.
func percentile(sorted []int64, p float64) (v int64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k], len(sorted) - 1 - k
}

// latBins is how finely latency samples are binned by due time. A
// percentile is taken per group of adjacent bins and the median over
// groups is reported: on real sockets a scheduling hiccup then spoils
// one group in forty, not one in ten.
const latBins = 40

// latencySamples holds latencies by the bin their cast was due in. A
// sample is credited to its due bin, not its arrival bin, so a delivery
// that lands in the drain still counts against the cast that waited
// for it.
type latencySamples [latBins][]int64

func newLatencySamples(perBin int) *latencySamples {
	var l latencySamples
	for i := range l {
		l[i] = make([]int64, 0, perBin)
	}
	return &l
}

// add records one latency for a cast due at `due` in a measure phase
// that starts at start and lasts measure; casts outside it are ignored.
func (l *latencySamples) add(due, start, measure, latency time.Duration) {
	if due < start {
		return
	}
	if b := int(int64(due-start) * latBins / int64(measure)); b < latBins {
		l[b] = append(l[b], int64(latency))
	}
}

// latencyStats summarizes latency samples, in milliseconds: for each p
// the median over bin groups of the group's p-quantile, and likewise
// the median over groups of the group's mean; n is the sample count.
// Bins are grouped in ones, twos or fours: the finest grouping that
// leaves ten samples beyond the 99th percentile in every group.
func latencyStats(sets []*latencySamples, ps ...float64) (quantiles []float64, mean float64, n int) {
	merged := make([][]int64, latBins)
	for i := range merged {
		for _, s := range sets {
			merged[i] = append(merged[i], s[i]...)
		}
		n += len(merged[i])
	}
	group := 1
	for ; group < 4; group *= 2 {
		enough := true
		for i := 0; i < latBins; i += group {
			k := 0
			for j := i; j < i+group; j++ {
				k += len(merged[j])
			}
			enough = enough && k >= 1100
		}
		if enough {
			break
		}
	}
	perP := make([][]float64, len(ps))
	var means []float64
	for i := 0; i < latBins; i += group {
		var all []int64
		for j := i; j < i+group; j++ {
			all = append(all, merged[j]...)
		}
		if len(all) == 0 {
			continue
		}
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		var sum float64
		for _, v := range all {
			sum += float64(v)
		}
		means = append(means, sum/float64(len(all))/1e6)
		for k, p := range ps {
			v, _ := percentile(all, p)
			perP[k] = append(perP[k], float64(v)/1e6)
		}
	}
	quantiles = make([]float64, len(ps))
	for k := range ps {
		quantiles[k] = median(perP[k])
	}
	return quantiles, median(means), n
}
