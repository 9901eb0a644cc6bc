package chaos

import (
	"strings"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/netsim"
)

func id(site string, birth uint64) core.EndpointID {
	return core.EndpointID{Site: site, Birth: birth}
}

func view(seq uint64, coord core.EndpointID, members ...core.EndpointID) *core.View {
	return core.NewView(core.ViewID{Seq: seq, Coord: coord}, "chaos", members)
}

func TestRampLossEndsCleared(t *testing.T) {
	s := RampLoss(0, 100*time.Millisecond, 0, 1, netsim.Link{}, 0.8, 4)
	if len(s) != 5 {
		t.Fatalf("ramp has %d actions, want 4 steps + clear", len(s))
	}
	last := s.Sorted()[len(s)-1]
	if last.Kind != KindClearLink {
		t.Fatalf("ramp ends with %v, want clear-link", last.Kind)
	}
	// Loss increases monotonically to the peak.
	var prev float64
	for _, a := range s.Sorted()[:4] {
		if a.Link.LossRate <= prev {
			t.Fatalf("ramp not monotone: %v after %v", a.Link.LossRate, prev)
		}
		prev = a.Link.LossRate
	}
	if prev != 0.8 {
		t.Fatalf("ramp peak %v, want 0.8", prev)
	}
}

func TestFlapAlternates(t *testing.T) {
	s := Flap(0, 50*time.Millisecond, 50*time.Millisecond, 0, 2, 3).Sorted()
	if len(s) != 6 {
		t.Fatalf("flap has %d actions, want 6", len(s))
	}
	for i, a := range s {
		want := KindSetLink
		if i%2 == 1 {
			want = KindClearLink
		}
		if a.Kind != want {
			t.Fatalf("action %d is %v, want %v", i, a.Kind, want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Members: 4, Horizon: 5 * time.Second, Incidents: 8}
	a, b := Generate(99, cfg), Generate(99, cfg)
	if a.String() != b.String() {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s", a, b)
	}
	if c := Generate(100, cfg); c.String() == a.String() {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestGenerateSelfCleaning: every crash is recovered, partitions are
// balanced by heals, slot 0 never crashes, and the schedule ends with
// the safety tail.
func TestGenerateSelfCleaning(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		s := Generate(seed, GenConfig{Members: 5, Horizon: 6 * time.Second, Incidents: 10})
		down := map[int]bool{}
		partitions, heals := 0, 0
		for _, a := range s.Sorted() {
			switch a.Kind {
			case KindCrash:
				if a.A == 0 {
					t.Fatalf("seed %d: generator crashed slot 0", seed)
				}
				if down[a.A] {
					t.Fatalf("seed %d: slot %d crashed while down", seed, a.A)
				}
				down[a.A] = true
			case KindRecover:
				if !down[a.A] {
					t.Fatalf("seed %d: slot %d recovered while up", seed, a.A)
				}
				delete(down, a.A)
			case KindPartition:
				partitions++
				if len(a.Sides) < 2 {
					t.Fatalf("seed %d: degenerate partition %v", seed, a.Sides)
				}
				for _, side := range a.Sides {
					if len(side) == 0 {
						t.Fatalf("seed %d: empty partition side %v", seed, a.Sides)
					}
				}
			case KindHeal:
				heals++
			}
		}
		if len(down) != 0 {
			t.Fatalf("seed %d: schedule leaves slots %v crashed", seed, down)
		}
		if heals <= partitions-1 {
			t.Fatalf("seed %d: %d partitions but only %d heals", seed, partitions, heals)
		}
		last := s.Sorted()[len(s)-1]
		if last.Kind != KindClearLink && last.Kind != KindHeal {
			t.Fatalf("seed %d: schedule ends with %v, want the safety tail", seed, last.Kind)
		}
	}
}

func TestCheckSelfInclusionCatchesExclusion(t *testing.T) {
	me, other := id("a", 1), id("b", 1)
	h := &History{Slot: 0, ID: me, Views: []*core.View{view(2, other, other)}}
	if errs := CheckSelfInclusion([]*History{h}); len(errs) != 1 {
		t.Fatalf("got %v, want 1 violation", errs)
	}
}

func TestCheckMonotoneCatchesRegression(t *testing.T) {
	me := id("a", 1)
	h := &History{ID: me, Views: []*core.View{view(3, me, me), view(2, me, me)}}
	if errs := CheckMonotoneViews([]*History{h}); len(errs) != 1 {
		t.Fatalf("got %v, want 1 violation", errs)
	}
}

func TestCheckViewConsistencyCatchesSplitBrainViews(t *testing.T) {
	a, b := id("a", 1), id("b", 1)
	v := core.ViewID{Seq: 2, Coord: a}
	ha := &History{Slot: 0, ID: a, Views: []*core.View{core.NewView(v, "g", []core.EndpointID{a, b})}}
	hb := &History{Slot: 1, ID: b, Views: []*core.View{core.NewView(v, "g", []core.EndpointID{b})}}
	if errs := CheckViewConsistency([]*History{ha, hb}); len(errs) != 1 {
		t.Fatalf("got %v, want 1 violation", errs)
	}
}

func TestCheckNoDuplicatesCatchesRedelivery(t *testing.T) {
	v := core.ViewID{Seq: 1, Coord: id("a", 1)}
	h := &History{ID: id("a", 1), Deliveries: []Delivery{
		{View: v, Payload: "s1.0-1"}, {View: v, Payload: "s1.0-1"},
	}}
	if errs := CheckNoDuplicates([]*History{h}); len(errs) != 1 {
		t.Fatalf("got %v, want 1 violation", errs)
	}
}

func TestCheckFIFO(t *testing.T) {
	v1 := core.ViewID{Seq: 1, Coord: id("a", 1)}
	v2 := core.ViewID{Seq: 2, Coord: id("a", 1)}
	// Reorder within a view: violation. Gap within a view: violation.
	// Gap across a view boundary: legal.
	bad := &History{ID: id("a", 1), Deliveries: []Delivery{
		{View: v1, Payload: "s1.0-2"}, {View: v1, Payload: "s1.0-1"},
	}}
	if errs := CheckFIFO([]*History{bad}); len(errs) != 1 {
		t.Fatalf("reorder: got %v, want 1 violation", errs)
	}
	gap := &History{ID: id("a", 1), Deliveries: []Delivery{
		{View: v1, Payload: "s1.0-1"}, {View: v1, Payload: "s1.0-3"},
	}}
	if errs := CheckFIFO([]*History{gap}); len(errs) != 1 {
		t.Fatalf("in-view gap: got %v, want 1 violation", errs)
	}
	ok := &History{ID: id("a", 1), Deliveries: []Delivery{
		{View: v1, Payload: "s1.0-1"}, {View: v2, Payload: "s1.0-3"},
	}}
	if errs := CheckFIFO([]*History{ok}); len(errs) != 0 {
		t.Fatalf("cross-view gap flagged: %v", errs)
	}
}

// TestParsePayloadAllocs pins the payload parsers CheckFIFO and the
// degradation run apply to every delivery at no allocation, and checks
// what they read.
func TestParsePayloadAllocs(t *testing.T) {
	for _, tc := range []struct {
		payload, origin string
		seq             int
		ok              bool
	}{
		{"s1.0-17", "s1.0", 17, true},
		{"s12.3-0", "s12.3", 0, true},
		{"a-b-9", "a-b", 9, true},
		{"s1.0", "", 0, false},
		{"s1.0-", "", 0, false},
		{"s1.0-x", "", 0, false},
	} {
		origin, seq, ok := parsePayload(tc.payload)
		if origin != tc.origin || seq != tc.seq || ok != tc.ok {
			t.Errorf("parsePayload(%q) = %q, %d, %v; want %q, %d, %v",
				tc.payload, origin, seq, ok, tc.origin, tc.seq, tc.ok)
		}
	}
	for _, tc := range []struct {
		payload string
		i       int
		ok      bool
	}{
		{degradePayload(42), 42, true},
		{"d7|", 7, true},
		{"d7", 0, false},
		{"x7|", 0, false},
		{"d|", 0, false},
	} {
		if i, ok := parseDegradePayload(tc.payload); i != tc.i || ok != tc.ok {
			t.Errorf("parseDegradePayload(%q) = %d, %v; want %d, %v", tc.payload, i, ok, tc.i, tc.ok)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { parsePayload("s3.1-123456") }); allocs != 0 {
		t.Errorf("parsePayload: %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { parseDegradePayload("d123|xxxx") }); allocs != 0 {
		t.Errorf("parseDegradePayload: %v allocations, want 0", allocs)
	}
}

// TestCheckFIFOForgivesReportedLoss: a within-view gap is legal exactly
// when a LOST_MESSAGE report landed between the two deliveries — NAK
// answered with a place holder for a trimmed range — and the report is
// attributable to the gapped origin. A loss from an unrelated origin
// forgives nothing.
func TestCheckFIFOForgivesReportedLoss(t *testing.T) {
	a, b, c := id("a", 1), id("b", 1), id("c", 1)
	v1 := core.ViewID{Seq: 1, Coord: a}
	origin := &History{Slot: 1, Inc: 0, ID: b} // named s1.0
	other := &History{Slot: 2, Inc: 0, ID: c}  // named s2.0
	reported := &History{Slot: 0, Inc: 0, ID: a, Deliveries: []Delivery{
		{View: v1, Payload: "s1.0-1"},
		{View: v1, Lost: true, From: b},
		{View: v1, Payload: "s1.0-3"},
	}}
	if errs := CheckFIFO([]*History{reported, origin, other}); len(errs) != 0 {
		t.Fatalf("reported gap flagged: %v", errs)
	}
	wrongOrigin := &History{Slot: 0, Inc: 0, ID: a, Deliveries: []Delivery{
		{View: v1, Payload: "s1.0-1"},
		{View: v1, Lost: true, From: c},
		{View: v1, Payload: "s1.0-3"},
	}}
	if errs := CheckFIFO([]*History{wrongOrigin, origin, other}); len(errs) != 1 {
		t.Fatalf("wrong-origin loss: got %v, want 1 violation", errs)
	}
	// A loss report is consumed by the next delivery from its origin:
	// it does not forgive a second, later gap.
	stale := &History{Slot: 0, Inc: 0, ID: a, Deliveries: []Delivery{
		{View: v1, Payload: "s1.0-1"},
		{View: v1, Lost: true, From: b},
		{View: v1, Payload: "s1.0-3"},
		{View: v1, Payload: "s1.0-5"},
	}}
	if errs := CheckFIFO([]*History{stale, origin, other}); len(errs) != 1 {
		t.Fatalf("stale loss reused: got %v, want 1 violation", errs)
	}
	// A loss from a peer no history accounts for (e.g. a flush
	// forwarder) forgives gaps in the view it was reported in.
	unattributed := &History{Slot: 0, Inc: 0, ID: a, Deliveries: []Delivery{
		{View: v1, Payload: "s1.0-1"},
		{View: v1, Lost: true, From: id("ghost", 1)},
		{View: v1, Payload: "s1.0-3"},
	}}
	if errs := CheckFIFO([]*History{unattributed, origin, other}); len(errs) != 0 {
		t.Fatalf("unattributed loss not forgiven: %v", errs)
	}
}

func TestCheckViewAgreement(t *testing.T) {
	a, b := id("a", 1), id("b", 1)
	v1 := view(1, a, a, b)
	v2 := view(2, a, a, b)
	mk := func(deliv string) *History {
		h := &History{ID: a, Views: []*core.View{v1, v2}}
		if deliv != "" {
			h.Deliveries = append(h.Deliveries, Delivery{View: v1.ID, Payload: deliv})
		}
		return h
	}
	agree := []*History{mk("s0.0-1"), mk("s0.0-1")}
	if errs := CheckViewAgreement(agree); len(errs) != 0 {
		t.Fatalf("agreeing histories flagged: %v", errs)
	}
	disagree := []*History{mk("s0.0-1"), mk("")}
	if errs := CheckViewAgreement(disagree); len(errs) != 1 {
		t.Fatalf("got %v, want 1 violation", errs)
	}
	// Open (final) views are never checked: drop v2 so v1 is open.
	open := []*History{
		{ID: a, Views: []*core.View{v1}, Deliveries: []Delivery{{View: v1.ID, Payload: "x-1"}}},
		{ID: b, Views: []*core.View{v1}},
	}
	if errs := CheckViewAgreement(open); len(errs) != 0 {
		t.Fatalf("open view checked: %v", errs)
	}
}

// TestClusterCrashRecoverSmoke is the end-to-end smoke: form a
// cluster, crash a member, recover it, and demand re-convergence with
// all invariants intact. The full multi-seed soak lives in
// internal/integration.
func TestClusterCrashRecoverSmoke(t *testing.T) {
	c := NewCluster(Config{Seed: 7, Members: 3,
		Link: netsim.Link{Delay: time.Millisecond, Jitter: time.Millisecond}})
	if err := c.Form(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Apply(Schedule{
		{At: 100 * time.Millisecond, Kind: KindCrash, A: 2},
		{At: 900 * time.Millisecond, Kind: KindRecover, A: 2},
	})
	c.Run(1200 * time.Millisecond)
	if err := c.Settle(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	if errs := c.Check(); len(errs) != 0 {
		for _, e := range errs {
			t.Error(e)
		}
	}
	if len(c.Histories) != 4 {
		t.Fatalf("expected 4 incarnations (3 boots + 1 recover), got %d", len(c.Histories))
	}
}

// TestGenerateHarshDeterministic: harsh schedules are equally pure
// functions of the seed — byte-identical across calls, including the
// harsh-only incident kinds — and across 50 seeds the hostile
// repertoire (multi-way splits, anchor crashes, majority loss)
// actually appears.
func TestGenerateHarshDeterministic(t *testing.T) {
	cfg := GenConfig{Members: 5, Horizon: 6 * time.Second, Incidents: 10, Harsh: true}
	repertoire := map[string]bool{}
	for seed := int64(1); seed <= 50; seed++ {
		a, b := Generate(seed, cfg), Generate(seed, cfg)
		if a.String() != b.String() {
			t.Fatalf("seed %d: harsh schedule diverged:\n%s\nvs\n%s", seed, a, b)
		}
		for _, act := range a {
			for _, note := range []string{"way split", "anchor crash", "majority loss"} {
				if strings.Contains(act.Note, note) {
					repertoire[note] = true
				}
			}
		}
	}
	for _, note := range []string{"way split", "anchor crash", "majority loss"} {
		if !repertoire[note] {
			t.Errorf("50 harsh seeds never produced a %q incident", note)
		}
	}
}

// TestGenerateHarshSelfCleaning: harsh schedules stay self-cleaning —
// every crash (including the anchor's and the majority's) recovers,
// partitions stay non-degenerate, and the safety tail closes the
// schedule. Unlike the mild generator, harsh may crash slot 0 and may
// overlap partitions; what it must never do is leave wreckage behind.
func TestGenerateHarshSelfCleaning(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		s := Generate(seed, GenConfig{Members: 5, Horizon: 6 * time.Second, Incidents: 10, Harsh: true})
		down := map[int]bool{}
		partitions, heals := 0, 0
		for _, a := range s.Sorted() {
			switch a.Kind {
			case KindCrash:
				if down[a.A] {
					t.Fatalf("seed %d: slot %d crashed while down", seed, a.A)
				}
				down[a.A] = true
			case KindRecover:
				if !down[a.A] {
					t.Fatalf("seed %d: slot %d recovered while up", seed, a.A)
				}
				delete(down, a.A)
			case KindPartition:
				partitions++
				if len(a.Sides) < 2 {
					t.Fatalf("seed %d: degenerate partition %v", seed, a.Sides)
				}
				for _, side := range a.Sides {
					if len(side) == 0 {
						t.Fatalf("seed %d: empty partition side %v", seed, a.Sides)
					}
				}
			case KindHeal:
				heals++
			}
		}
		if len(down) != 0 {
			t.Fatalf("seed %d: schedule leaves slots %v crashed", seed, down)
		}
		if heals < partitions {
			t.Fatalf("seed %d: %d partitions but only %d heals", seed, partitions, heals)
		}
		last := s.Sorted()[len(s)-1]
		if last.Kind != KindClearLink && last.Kind != KindHeal {
			t.Fatalf("seed %d: schedule ends with %v, want the safety tail", seed, last.Kind)
		}
	}
}

// TestHarshVocabularyCoverage: each generator draws its whole
// vocabulary within the seed range a sweep runs it over, at the
// horus-chaos defaults. The polite generator, over seeds 1..12 (CI's
// `horus-chaos -transport udp -seeds 12`), draws every polite class:
// loss ramps, asymmetric loss, flaps, crashes, partitions, bandwidth
// squeezes, reorder bursts and egress squeezes. The harsh generator with
// switch storms armed, over seeds 1..100 (the nightly `-harsh -switch
// -seeds 100`), draws those and every harsh-only class (multi-way
// splits, anchor crashes, majority loss, composite degradation), plus
// the run-time reconfiguration class. A renumbering or probability
// change that silently starves one class out of a sweep fails here, not
// months later when the untested class regresses.
func TestHarshVocabularyCoverage(t *testing.T) {
	// Each class is recognized by the Note its builder stamps, except
	// the plain crash/recover pair, which carries no note and is
	// recognized by kind + the absence of a harsh crash note.
	classes := []struct {
		name   string
		polite bool // drawn by the polite generator too
		hit    func(a Action) bool
	}{
		{"loss ramp", true, func(a Action) bool { return strings.HasPrefix(a.Note, "ramp") }},
		{"asymmetric loss", true, func(a Action) bool { return strings.HasPrefix(a.Note, "asym") }},
		{"flap", true, func(a Action) bool { return strings.HasPrefix(a.Note, "flap") }},
		{"crash", true, func(a Action) bool { return a.Kind == KindCrash && a.Note == "" }},
		{"partition", true, func(a Action) bool { return strings.HasPrefix(a.Note, "rand split") }},
		{"bandwidth squeeze", true, func(a Action) bool { return a.Note == "bw squeeze" }},
		{"reorder burst", true, func(a Action) bool { return a.Note == "reorder burst" }},
		{"egress squeeze", true, func(a Action) bool { return a.Note == "egress squeeze" }},
		{"multi-way split", false, func(a Action) bool { return strings.HasSuffix(a.Note, "way split") }},
		{"anchor crash", false, func(a Action) bool { return a.Note == "anchor crash" }},
		{"majority loss", false, func(a Action) bool { return strings.HasPrefix(a.Note, "majority loss") }},
		{"composite degradation", false, func(a Action) bool { return a.Note == "degrade squeeze" }},
		{"switch storm", false, func(a Action) bool { return a.Kind == KindSwitch && a.Note == "switch storm" }},
	}

	sweeps := []struct {
		name  string
		cfg   GenConfig
		seeds int64
	}{
		{"polite", GenConfig{Members: 4, Horizon: 5 * time.Second, Incidents: 7}, 12},
		{"harsh", GenConfig{Members: 4, Horizon: 5 * time.Second, Incidents: 7, Harsh: true, Switch: true}, 100},
	}
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			seen := make(map[string]bool)
			for seed := int64(1); seed <= sw.seeds; seed++ {
				for _, a := range Generate(seed, sw.cfg) {
					for _, c := range classes {
						if c.hit(a) {
							seen[c.name] = true
						}
					}
				}
			}
			for _, c := range classes {
				if (c.polite || sw.cfg.Harsh) && !seen[c.name] {
					t.Errorf("%d %s seeds never drew a %s incident", sw.seeds, sw.name, c.name)
				}
			}
		})
	}
}
