// Command horus-load is the cluster-scale serving harness: it drives
// hundreds of groups and thousands of endpoints through real composed
// stacks with a deterministic open-loop workload, measures per-cast
// latency histograms and windowed goodput, sweeps offered load over a
// grid, and reports the saturation knee — the last load at which
// delivered goodput tracks offered load and tail latency stays under
// bound.
//
//	# deterministic virtual-time sweep, knee snapshot to a file
//	horus-load -stack fifo -groups 100 -members 10 \
//	    -sweep 50:800:6 -budget 150000 -json knee.json
//
//	# single-load run, human summary
//	horus-load -stack adapt -rate 200
//
//	# same harness over real UDP sockets, reduced scale
//	horus-load -transport udp -groups 5 -members 3 -sweep 50:400:4
//
//	# regression gate against a committed snapshot
//	horus-load -sweep 50:800:6 -budget 150000 -check knee.json
//
// On the simulated fabric (default) every number is a pure function
// of -seed: two equal invocations produce byte-identical JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"horus/internal/chaos"
	"horus/internal/chaosnet"
	"horus/internal/loadgen"
	"horus/internal/netsim"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "deterministic seed for workload and fabric")
		stack     = flag.String("stack", "fifo", "protocol arm: fifo (NAK:COM), total (TOTAL:NAK:COM), adapt (ADAPT:NAK:COM)")
		groups    = flag.Int("groups", 0, "process groups (default 100 sim, 5 udp)")
		members   = flag.Int("members", 0, "endpoints per group (default 10 sim, 3 udp)")
		rate      = flag.Float64("rate", 200, "offered casts/sec per group (single run)")
		sweep     = flag.String("sweep", "", "sweep grid lo:hi:n of offered loads; empty = single run at -rate")
		loads     = flag.String("loads", "", "explicit comma-separated sweep loads (overrides -sweep)")
		body      = flag.Int("body", 64, "cast payload bytes (min 16)")
		warmup    = flag.Duration("warmup", 200*time.Millisecond, "warmup before measurement")
		measure   = flag.Duration("measure", time.Second, "measurement span")
		drain     = flag.Duration("drain", 300*time.Millisecond, "drain after measurement")
		window    = flag.Duration("window", 250*time.Millisecond, "goodput accounting window")
		budget    = flag.Int("budget", 0, "per-endpoint egress budget, bytes/sec (0 = uncapped; saturation needs a cap)")
		queue     = flag.Int("queue", 0, "per-endpoint egress queue bound, bytes (0 = netsim default)")
		delay     = flag.Duration("delay", 200*time.Microsecond, "link propagation delay")
		jitter    = flag.Duration("jitter", 100*time.Microsecond, "link jitter bound")
		loss      = flag.Float64("loss", 0, "link loss rate")
		tol       = flag.Float64("tol", 0.05, "goodput tolerance: pass needs delivered/expected >= 1-tol")
		p99bound  = flag.Duration("p99bound", 100*time.Millisecond, "p99 latency bound for a passing point (0 = none)")
		transport = flag.String("transport", "sim", "fabric: sim (virtual time, deterministic) or udp (real sockets, reduced scale)")
		jsonPath  = flag.String("json", "", "write the knee snapshot JSON here (- for stdout)")
		checkPath = flag.String("check", "", "gate against a previous snapshot; exit 1 if the knee moved or goodput fell")
		checkTol  = flag.Float64("checktol", 0.15, "tolerance for -check (fraction)")
	)
	flag.Parse()

	if *groups == 0 {
		*groups = map[bool]int{true: 5, false: 100}[*transport == "udp"]
	}
	if *members == 0 {
		*members = map[bool]int{true: 3, false: 10}[*transport == "udp"]
	}

	link := netsim.Link{Delay: *delay, Jitter: *jitter, LossRate: *loss}
	var newFabric func() chaos.Fabric
	switch *transport {
	case "sim":
		newFabric = func() chaos.Fabric { return chaos.NewSimFabric(*seed, link) }
	case "udp":
		newFabric = func() chaos.Fabric { return chaosnet.New(chaosnet.Config{Seed: *seed, DefaultLink: link}) }
	default:
		fatalf("unknown -transport %q (want sim or udp)", *transport)
	}

	grid, err := parseGrid(*sweep, *loads, *rate)
	if err != nil {
		fatalf("%v", err)
	}
	sc := loadgen.SweepConfig{
		Base: loadgen.Config{
			Seed:    *seed,
			Stack:   *stack,
			Groups:  *groups,
			Members: *members,
			Body:    *body,
			Warmup:  *warmup,
			Measure: *measure,
			Drain:   *drain,
			Window:  *window,
			Host:    netsim.Host{EgressBudget: *budget, EgressQueue: *queue},
		},
		Loads:    grid,
		RatioTol: *tol,
		P99Bound: *p99bound,
	}

	sr, err := loadgen.Sweep(newFabric, sc)
	if err != nil {
		fatalf("%v", err)
	}
	printSweep(sr)
	snap := sr.Snapshot()

	if *jsonPath != "" {
		b, err := snap.Encode()
		if err != nil {
			fatalf("encode: %v", err)
		}
		if *jsonPath == "-" {
			os.Stdout.Write(b)
		} else if err := os.WriteFile(*jsonPath, b, 0o644); err != nil {
			fatalf("write %s: %v", *jsonPath, err)
		} else {
			fmt.Printf("snapshot written to %s\n", *jsonPath)
		}
	}
	if *checkPath != "" {
		raw, err := os.ReadFile(*checkPath)
		if err != nil {
			fatalf("read %s: %v", *checkPath, err)
		}
		old, err := loadgen.DecodeSnapshot(raw)
		if err != nil {
			fatalf("parse %s: %v", *checkPath, err)
		}
		if err := snap.CheckAgainst(old, *checkTol); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("check against %s: ok\n", *checkPath)
	}
}

// parseGrid resolves the sweep loads: -loads wins, then -sweep, then a
// single point at -rate.
func parseGrid(sweep, loads string, rate float64) ([]float64, error) {
	if loads != "" {
		var out []float64
		for _, tok := range strings.Split(loads, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return nil, fmt.Errorf("bad -loads entry %q: %v", tok, err)
			}
			out = append(out, v)
		}
		return out, nil
	}
	if sweep != "" {
		parts := strings.Split(sweep, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad -sweep %q: want lo:hi:n", sweep)
		}
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		n, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || n < 1 || lo <= 0 || hi < lo {
			return nil, fmt.Errorf("bad -sweep %q: want lo:hi:n with 0 < lo <= hi, n >= 1", sweep)
		}
		return loadgen.DefaultLoadGrid(n, lo, hi), nil
	}
	return []float64{rate}, nil
}

func printSweep(sr *loadgen.SweepResult) {
	fmt.Printf("horus-load: stack=%s seed=%d\n", sr.Stack, sr.Seed)
	fmt.Printf("%10s %6s %9s %9s %12s %12s %12s %8s %8s\n",
		"load_cps", "pass", "ratio", "goodput", "p50", "p95", "p99", "shed", "lost")
	for _, p := range sr.Points {
		r := p.Result
		fmt.Printf("%10.2f %6v %9.4f %9.0f %12v %12v %12v %8d %8d\n",
			p.Load, p.Pass, r.Ratio, r.Goodput, r.P50, r.P95, r.P99, r.Shed, r.Lost)
	}
	if sr.Saturated {
		fmt.Printf("knee: %.2f casts/s per group (slope %.2f before knee)\n", sr.Knee, sr.Slope)
	} else {
		fmt.Printf("knee: censored at top of grid (%.2f casts/s; all points passed, slope %.2f)\n", sr.Knee, sr.Slope)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "horus-load: "+format+"\n", args...)
	os.Exit(1)
}
