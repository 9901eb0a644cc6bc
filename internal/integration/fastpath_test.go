package integration

// Differential equivalence suite for the §10 cast fast path: the
// compiled send plan must be *the same protocol, only faster*. For
// randomized stacks and seeded cast schedules the suite runs the same
// scenario twice — once with the compiled plan engaged, once pinned to
// the per-layer reference path — and demands byte-identical wire
// output and identical delivery order at every member, plus
// bit-identical replay of the fast path against itself. The
// deterministic netsim sweep compares the complete transmit stream
// (data, NAK status gossip, membership traffic — everything that
// leaves any endpoint); the chaosnet UDP variant re-runs the
// comparison over real sockets, filtered to the sequenced data frames
// because wall-clock timers make control chatter legitimately
// timing-dependent. PlanStats assertions keep every scenario
// non-vacuous: a run that silently never engaged the compiled plan is
// a test bug, not a pass.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"horus/internal/chaosnet"
	"horus/internal/core"
	"horus/internal/layers/chksum"
	"horus/internal/layers/com"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/property"
	"horus/internal/stackreg"
)

// fastPathStacks is the randomized pool: every compilable shape
// (static headers, CRC fill, sequence assignment) and whether it
// compiles a plan, plus reference-only controls whose FRAG, MBRSHIP or
// TOTAL layer has no compiled form — proving a stack without a plan
// behaves identically whichever way the toggle points.
var fastPathStacks = []struct {
	desc string
	plan bool
}{
	{desc: "COM", plan: true},
	{desc: "CHKSUM:COM", plan: true},
	{desc: "HBEAT:CHKSUM:COM", plan: true},
	{desc: "NAK:COM", plan: true},
	{desc: "NAK:CHKSUM:COM", plan: true},
	{desc: "FRAG:NAK:COM", plan: false},
	{desc: "FRAG:NAK:CHKSUM:COM", plan: false},
	{desc: "MBRSHIP:FRAG:NAK:COM", plan: false},
	{desc: "TOTAL:MBRSHIP:FRAG:NAK:COM", plan: false},
}

// fpRun is everything one scenario run observed, keyed by member site.
type fpRun struct {
	mu       sync.Mutex
	wires    map[string][][]byte // per-sender transmit stream, in order
	delivs   map[string][]string // per-member "<source-site>:<body>" in order
	fast     uint64              // casts the compiled plan carried
	hasPlan  bool
	schedule int // casts issued
}

func newFPRun() *fpRun {
	return &fpRun{wires: map[string][][]byte{}, delivs: map[string][]string{}}
}

func (r *fpRun) tap(site string) func([]core.EndpointID, []byte) {
	return func(dests []core.EndpointID, wire []byte) {
		r.mu.Lock()
		r.wires[site] = append(r.wires[site], append([]byte(nil), wire...))
		r.mu.Unlock()
	}
}

func (r *fpRun) recorder(site string) core.Handler {
	return func(ev *core.Event) {
		if ev.Type == core.UCast {
			r.mu.Lock()
			r.delivs[site] = append(r.delivs[site], ev.Source.Site+":"+string(ev.Msg.Body()))
			r.mu.Unlock()
		}
	}
}

func (r *fpRun) delivered(site string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.delivs[site])
}

// requireSameRuns compares two runs' transmit streams and delivery
// orders byte for byte.
func requireSameRuns(t *testing.T, what string, a, b *fpRun) {
	t.Helper()
	for _, site := range []string{"a", "b"} {
		wa, wb := a.wires[site], b.wires[site]
		if len(wa) != len(wb) {
			t.Fatalf("%s: member %s transmitted %d frames vs %d", what, site, len(wa), len(wb))
		}
		for i := range wa {
			if string(wa[i]) != string(wb[i]) {
				t.Fatalf("%s: member %s frame %d differs:\n  %x\nvs\n  %x", what, site, i, wa[i], wb[i])
			}
		}
		da, db := a.delivs[site], b.delivs[site]
		if len(da) != len(db) {
			t.Fatalf("%s: member %s delivered %d vs %d", what, site, len(da), len(db))
		}
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("%s: member %s delivery %d differs: %q vs %q", what, site, i, da[i], db[i])
			}
		}
	}
}

// fpBody derives a deterministic payload. Sizes mix small casts with
// oversize bodies that FRAG (when present) splits.
func fpBody(rng *rand.Rand, i int) []byte {
	var size int
	switch rng.Intn(4) {
	case 0:
		size = 1 + rng.Intn(48)
	case 1, 2:
		size = 100 + rng.Intn(400)
	default:
		size = 1200 + rng.Intn(1800) // beyond FRAG's default 1024 max
	}
	b := make([]byte, size)
	rng.Read(b)
	copy(b, []byte(fmt.Sprintf("m%03d|", i)))
	return b
}

// runSimScenario executes one (stack, seed) cast schedule on the
// deterministic fabric with the fast path toggled as given.
func runSimScenario(t *testing.T, desc string, seed int64, fast bool) *fpRun {
	t.Helper()
	r := newFPRun()
	net := netsim.New(netsim.Config{Seed: seed, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	spec, err := stackreg.Build(desc, property.P1)
	if err != nil {
		t.Fatal(err)
	}
	build := func() core.StackSpec { return spec }
	epA, epB := net.NewEndpoint("a"), net.NewEndpoint("b")
	epA.SetFastPath(fast)
	epB.SetFastPath(fast)
	epA.SetWireTap(r.tap("a"))
	epB.SetWireTap(r.tap("b"))
	var viewB *core.View
	ga, err := epA.Join("grp", build(), r.recorder("a"))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := epB.Join("grp", build(), func(ev *core.Event) {
		if ev.Type == core.UView {
			viewB = ev.View
		}
		r.recorder("b")(ev)
	})
	if err != nil {
		t.Fatal(err)
	}

	hasMembership := false
	for _, n := range property.ParseStack(desc) {
		if n == "MBRSHIP" {
			hasMembership = true
		}
	}
	if hasMembership {
		var tryMerge func()
		tryMerge = func() {
			if viewB != nil && viewB.Size() >= 2 {
				return
			}
			gb.Merge(epA.ID())
			net.At(net.Now()+150*time.Millisecond, tryMerge)
		}
		net.At(20*time.Millisecond, tryMerge)
		net.RunFor(3 * time.Second)
		if viewB == nil || viewB.Size() != 2 {
			t.Fatalf("membership formation failed for %s", desc)
		}
	} else {
		view := core.NewView(core.ViewID{Seq: 1, Coord: epA.ID()}, "grp",
			[]core.EndpointID{epA.ID(), epB.ID()})
		ga.InstallView(view)
		gb.InstallView(view)
	}

	rng := rand.New(rand.NewSource(seed * 7919))
	n := 8 + rng.Intn(12)
	r.schedule = n
	base := net.Now()
	for i := 0; i < n; i++ {
		i := i
		g := ga
		if rng.Intn(3) == 0 {
			g = gb
		}
		body := fpBody(rng, i)
		net.At(base+time.Duration(i)*7*time.Millisecond, func() {
			g.Cast(message.New(body))
		})
	}
	net.RunFor(3 * time.Second)

	r.fast = ga.Stack().PlanStats().Fast + gb.Stack().PlanStats().Fast
	r.hasPlan = ga.Stack().HasCastPlan()
	return r
}

// TestFastPathDifferentialSim is the randomized netsim sweep:
// fast-vs-reference equality over the complete transmit stream, plus
// bit-identical replay of the fast path.
func TestFastPathDifferentialSim(t *testing.T) {
	for si, row := range fastPathStacks {
		row := row
		seed := int64(101 + si)
		t.Run(row.desc, func(t *testing.T) {
			fastRun := runSimScenario(t, row.desc, seed, true)
			refRun := runSimScenario(t, row.desc, seed, false)
			requireSameRuns(t, "fast vs reference", fastRun, refRun)
			replay := runSimScenario(t, row.desc, seed, true)
			requireSameRuns(t, "fast replay", fastRun, replay)

			if fastRun.hasPlan != row.plan {
				t.Fatalf("stack plan=%v, want %v", fastRun.hasPlan, row.plan)
			}
			if row.plan && fastRun.fast == 0 {
				t.Fatalf("compiled plan never ran (schedule of %d casts)", fastRun.schedule)
			}
			if !row.plan && fastRun.fast != 0 {
				t.Fatalf("stack without a plan reported %d fast casts", fastRun.fast)
			}
			if refRun.fast != 0 {
				t.Fatalf("reference run leaked %d casts onto the fast path", refRun.fast)
			}
		})
	}
}

// nakDataFrame reports whether a captured wire image is a sequenced
// NAK data frame for a stack whose NAK layer sits above COM, directly
// or with CHKSUM's 4-byte CRC between them (crc):
// [u32 hdrlen][birth u64][sitelen u32][site][kindCast=1]([crc u32])[kindData=1]….
// The UDP comparison filters on this because NAK's timer-driven
// control traffic (status gossip, re-NAKs) is legitimately
// wall-clock-dependent, while the sequenced data stream is a pure
// function of the cast schedule.
func nakDataFrame(w []byte, crc bool) bool {
	off := 4 + 8
	if len(w) < off+4 {
		return false
	}
	site := int(binary.BigEndian.Uint32(w[off:]))
	off += 4 + site
	kindData := off + 1
	if crc {
		kindData += 4
	}
	if len(w) <= kindData {
		return false
	}
	return w[off] == 1 && w[kindData] == 1
}

func filterNakData(frames [][]byte, crc bool) [][]byte {
	var out [][]byte
	for _, f := range frames {
		if nakDataFrame(f, crc) {
			out = append(out, f)
		}
	}
	return out
}

// runUDPScenario executes a paced single-sender cast schedule over the
// chaosnet UDP proxy, on NAK:COM or, withChksum, NAK:CHKSUM:COM. The
// NAK status gossip is pushed out beyond the test horizon so the
// sequenced data stream is the only deterministic traffic — which is
// exactly what the comparison filters down to.
func runUDPScenario(t *testing.T, withChksum bool, seed int64, fast bool) *fpRun {
	t.Helper()
	r := newFPRun()
	fab := chaosnet.New(chaosnet.Config{Seed: seed, DefaultLink: netsim.Link{Delay: 200 * time.Microsecond}})
	defer fab.Close()
	quietNak := nak.NewWith(nak.WithStatusPeriod(time.Hour), nak.WithSuspectAfter(0))
	mk := func() core.StackSpec {
		if withChksum {
			return core.StackSpec{quietNak, chksum.New, com.New}
		}
		return core.StackSpec{quietNak, com.New}
	}
	epA, epB := fab.NewEndpoint("a"), fab.NewEndpoint("b")
	epA.SetFastPath(fast)
	epB.SetFastPath(fast)
	epA.SetWireTap(r.tap("a"))
	ga, err := epA.Join("grp", mk(), r.recorder("a"))
	if err != nil {
		t.Fatal(err)
	}
	gb, err := epB.Join("grp", mk(), r.recorder("b"))
	if err != nil {
		t.Fatal(err)
	}
	view := core.NewView(core.ViewID{Seq: 1, Coord: epA.ID()}, "grp",
		[]core.EndpointID{epA.ID(), epB.ID()})
	ga.InstallView(view)
	gb.InstallView(view)

	rng := rand.New(rand.NewSource(seed * 1297))
	const casts = 30
	r.schedule = casts
	for i := 0; i < casts; i++ {
		body := make([]byte, 16+rng.Intn(380))
		rng.Read(body)
		copy(body, []byte(fmt.Sprintf("u%03d|", i)))
		ga.Cast(message.New(body))
		time.Sleep(time.Millisecond) // pace below any socket-buffer horizon
	}
	// Both members' deliveries are compared, so wait for both: a's own
	// copy of the last cast comes back through the loopback socket and
	// can trail b's.
	deadline := time.Now().Add(10 * time.Second)
	for (r.delivered("a") < casts || r.delivered("b") < casts) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for _, who := range []string{"a", "b"} {
		if got := r.delivered(who); got < casts {
			t.Fatalf("%s delivered %d of %d casts over UDP", who, got, casts)
		}
	}
	r.fast = ga.Stack().PlanStats().Fast
	r.hasPlan = ga.Stack().HasCastPlan()
	r.mu.Lock()
	r.wires["a"] = filterNakData(r.wires["a"], withChksum)
	r.wires["b"] = nil // b only receives; its control chatter is not compared
	r.mu.Unlock()
	return r
}

// TestFastPathDifferentialUDP re-proves the equivalence over real
// sockets: the sequenced data frames and the delivery order must be
// byte-identical between fast and reference runs, and the fast path
// must replay bit-identically against itself. NAK:CHKSUM:COM adds the
// one Fill that reads the finished headers and body (the CRC), so the
// comparison pins more than NAK's sequence slot.
func TestFastPathDifferentialUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP differential runs at wall-clock speed")
	}
	for _, withChksum := range []bool{false, true} {
		withChksum := withChksum
		name := "NAK:COM"
		if withChksum {
			name = "NAK:CHKSUM:COM"
		}
		t.Run(name, func(t *testing.T) {
			seed := int64(31)
			fastRun := runUDPScenario(t, withChksum, seed, true)
			refRun := runUDPScenario(t, withChksum, seed, false)
			requireSameRuns(t, "fast vs reference (udp)", fastRun, refRun)
			replay := runUDPScenario(t, withChksum, seed, true)
			requireSameRuns(t, "fast replay (udp)", fastRun, replay)

			if !fastRun.hasPlan {
				t.Fatal("stack did not compile a plan")
			}
			if n := len(fastRun.wires["a"]); n != fastRun.schedule {
				t.Fatalf("compared %d data frames of %d casts", n, fastRun.schedule)
			}
			if fastRun.fast != uint64(fastRun.schedule) {
				t.Fatalf("compiled plan ran %d of %d casts", fastRun.fast, fastRun.schedule)
			}
			if refRun.fast != 0 {
				t.Fatalf("reference run leaked %d casts onto the fast path", refRun.fast)
			}
		})
	}
}
