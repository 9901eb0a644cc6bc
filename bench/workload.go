package main

import (
	"fmt"
	"strings"
	"time"

	"horus/bench/probe"
	"horus/internal/core"
	"horus/internal/netsim"
	"horus/internal/property"
	"horus/internal/stackreg"
	"horus/internal/udpnet"
)

// sec7 is the paper's §7 example stack; waist is what every reliable
// stack in this repository is built on.
const (
	sec7  = "TOTAL:MBRSHIP:FRAG:NAK:COM"
	waist = "NAK:COM"
)

type fabricKind int

const (
	simLoad  fabricKind = iota // open-loop Poisson load on netsim, virtual time
	simChurn                   // chaos.Cluster workload with crash/recover cycles
	udpLoad                    // open-loop paced load over loopback UDP sockets
)

// workload is a named configuration: a stackreg stack string built at
// registry defaults, a fabric, and a load. Nothing below switches on a
// workload's name.
type workload struct {
	name   string
	stack  string
	kind   fabricKind
	link   netsim.Link
	groups int
	// members per group; on udpLoad the number of endpoints.
	members int
	body    int     // cast body bytes
	rate    float64 // casts per second per group, on the fabric clock
	// fabricPerSecond is how much fabric time the measure phase covers
	// per unit of -seconds: sized so that one unit costs about one
	// wall second on two ~2 GHz cores. Fixed, not adaptive, so that a
	// seed and a -seconds value determine every count on netsim.
	fabricPerSecond float64
	warmup          time.Duration // fabric time before the measure phase; rate×warmup casts
	drain           time.Duration // fabric time after the last cast before operations are judged
}

var lossless = netsim.Link{Delay: time.Millisecond}

var workloads = []workload{
	{name: "waist-small-sim", stack: waist, kind: simLoad, link: lossless,
		groups: 8, members: 4, body: 64, rate: 2000,
		fabricPerSecond: 10, warmup: 500 * time.Millisecond, drain: time.Second},
	{name: "sec7-small-sim", stack: sec7, kind: simLoad, link: lossless,
		groups: 4, members: 4, body: 64, rate: 500,
		fabricPerSecond: 18, warmup: time.Second, drain: 2 * time.Second},
	{name: "sec7-frag-lossy-sim", stack: sec7, kind: simLoad,
		link:   netsim.Link{Delay: time.Millisecond, Jitter: 200 * time.Microsecond, LossRate: 0.01},
		groups: 1, members: 4, body: 16 << 10, rate: 100,
		fabricPerSecond: 6, warmup: time.Second, drain: 3 * time.Second},
	{name: "sec7-churn-sim", stack: sec7, kind: simChurn, link: lossless,
		groups: 1, members: 4, rate: 800, // 4 members × one cast per 5 ms
		fabricPerSecond: 24, warmup: 2 * time.Second, drain: 3 * time.Second},
	{name: "waist-small-udp", stack: waist, kind: udpLoad,
		groups: 1, members: 2, body: 64, rate: 5000,
		fabricPerSecond: 1, warmup: 400 * time.Millisecond, drain: time.Second},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runOpts are the per-run inputs.
type runOpts struct {
	seed    int64
	seconds float64 // measure phase in -seconds units
	traced  bool    // wrap every layer in a span probe (reference path)
	setups  int     // how many times to set up; the last one is measured
}

func (w *workload) measure(o runOpts) time.Duration {
	return time.Duration(o.seconds * w.fabricPerSecond * float64(time.Second))
}

// spanCapacity sizes one endpoint's span buffer for a traced run: the
// endpoint delivers every cast of its group, each crossing every layer
// and the handler once per fragment, with control traffic and
// retransmissions on top.
func (w *workload) spanCapacity(measure time.Duration, layers int) int {
	casts := w.rate * (w.warmup + measure + w.drain).Seconds()
	frags := float64(w.body/1024 + 2)
	return int(4*casts*frags*float64(layers+1)) + 50_000
}

// builtStack is a resolved stack string.
type builtStack struct {
	spec   core.StackSpec
	names  []string     // layer names, top first
	props  property.Set // what the stack provides over the fabric
	merges bool         // has a membership layer: groups form by real merges
}

// buildStack resolves a stack string at registry defaults. Stacks with
// a membership layer form their groups by real merges; the others are
// fed one static view by the benchmark, standing in for an external
// membership service.
func buildStack(desc string) (*builtStack, error) {
	b := &builtStack{names: property.ParseStack(desc)}
	for _, n := range b.names {
		if n == "MBRSHIP" {
			b.merges = true
		}
	}
	net := property.P1
	if !b.merges {
		net |= property.ExternalViews
	}
	var err error
	if b.props, err = property.Derive(net, b.names); err != nil {
		return nil, err
	}
	b.spec, err = stackreg.Build(desc, net)
	return b, err
}

// outcome is everything one run of one workload observed; metrics are
// derived from it afterwards.
type outcome struct {
	names  []string // layer names, top first
	setups []time.Duration

	attempted int64
	fail      failures

	ph phase // slices+1 snapshots of the measure phase
	// total is the counters when the run ended and fabricSpan the fabric
	// time from boot to then: the denominators for whole-run counts.
	total      snapshot
	fabricSpan time.Duration
	lat        []*latencySamples // one per sampling goroutine

	hashes []uint64 // per member: hash of its delivery sequence
	counts []int64  // per member: deliveries

	stats     layerStats
	fastCasts uint64 // Σ PlanStats().Fast
	malformed int    // Σ Endpoint.Malformed()
	sim       netsim.Stats
	udp       udpnet.Stats
	lateness  []int64 // generator lateness per cast, ns (udp)

	recs []*probe.Recorder // traced runs

	// churn only, fabric ns
	crashView, joinView []int64
	crashAt             []int64
}

func (o *outcome) failed() int64 { return o.fail.total() }
