// Command bench is the repository's end-to-end benchmark for composed
// protocol stacks: five workloads over netsim and loopback UDP, the
// end-to-end metrics BENCHMARK.json bounds, and — with -trace 1 — the
// per-layer metrics behind them. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// setupsPerRun is how many times a run sets the workload up; setup_s is
// the median and the last set-up is the one measured.
const setupsPerRun = 5

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name       = flag.String("workload", "", "run only this workload (default: all five)")
		seed       = flag.Int64("seed", 1, "workload seed: arrival times, senders, payloads, fault times")
		seconds    = flag.Float64("seconds", 0, "measure phase length in wall-second units (default: run_seconds of BENCHMARK.json)")
		trace      = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: span probes, ladder and replay, per-layer metrics")
		runs       = flag.Int("runs", 1, "repeat every workload this many times, with seeds seed, seed+1, ...")
		jsonOut    = flag.String("json", "", "write every result of this invocation to `file`")
		compare    = flag.Bool("compare", false, "compare two -json files given as arguments against the bounds of BENCHMARK.json")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the runs to `file`")
		memProfile = flag.String("memprofile", "", "write an allocation profile to `file` when the runs end")
		spansOut   = flag.String("spans", "", "with -trace 1: write the recorded spans to `file` as JSON lines, one endpoint per line")
	)
	flag.Parse()

	// Two Ps for every workload: the simulated fabric runs on one
	// goroutine (the second P serves the garbage collector), and the UDP
	// workload's two executors and two readers share them. The numbers
	// should measure the stacks, not how many cores the host has.
	runtime.GOMAXPROCS(2)

	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two files: base.json new.json"))
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace takes 0 or 1"))
	}

	todo := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return fail(err)
		}
		todo = []workload{*w}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	var results []workloadResult
	exit := 0
	for r := 0; r < *runs; r++ {
		opts := runOpts{seed: *seed + int64(r), seconds: *seconds, traced: *trace == 1, setups: setupsPerRun}
		for i := range todo {
			res, err := runWorkload(spec, &todo[i], opts, *spansOut)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", todo[i].name, err))
			}
			printResult(os.Stdout, spec, res)
			line, err := json.Marshal(res.contract())
			if err != nil {
				return fail(err)
			}
			fmt.Printf("%s\n", line)
			if res.Failed > 0 {
				exit = 1
			}
			results = append(results, *res)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return fail(err)
		}
	}
	if *jsonOut != "" {
		if err := writeRunFile(*jsonOut, *seed, *seconds, results); err != nil {
			return fail(err)
		}
	}
	return exit
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// runOnce dispatches on the workload's fabric.
func runOnce(w *workload, o runOpts) (*outcome, error) {
	switch w.kind {
	case simLoad:
		return runSim(w, o)
	case simChurn:
		return runChurn(w, o)
	default:
		return runUDP(w, o)
	}
}

// runWorkload produces one workload's result: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one.
func runWorkload(spec *benchSpec, w *workload, o runOpts, spansOut string) (*workloadResult, error) {
	res := &workloadResult{Workload: w.name, Stack: w.stack, Seed: o.seed, Traced: o.traced}
	m := newMetricSet(spec)
	var out *outcome
	var err error
	if o.traced {
		out, err = runTraced(m, res, w, o, spansOut)
	} else {
		if out, err = runOnce(w, o); err == nil {
			endToEnd(m, out)
			if w.kind == simChurn {
				churnViewMetrics(m, out)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failures, res.Failed = out.attempted, out.fail, out.failed()
	res.Metrics, res.Extra, err = m.split(o.traced)
	return res, err
}
