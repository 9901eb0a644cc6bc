package main

import (
	"math/rand"
	"runtime"
	"time"

	"horus/bench/probe"
	"horus/internal/chaos"
	"horus/internal/core"
)

// The churn workload runs through chaos.Cluster, which owns the
// application handler and boots endpoints by itself. The benchmark
// observes it from the two seams the cluster leaves open: the Fabric it
// is given (endpoint boots and crashes pass through it) and the stack
// spec it asks for at every boot (a pass-through tap layer above the
// top layer sees every downcall and upcall with the fabric time).

const (
	churnGroup    = core.GroupAddr("chaos") // the address chaos.Cluster joins
	churnCycle    = 2 * time.Second
	churnDwell    = time.Second            // crash → recover
	churnJitter   = 200 * time.Millisecond // crash offset within its cycle, drawn from the seed
	churnCastTick = 5 * time.Millisecond
	churnMergeGap = 10 * time.Millisecond
)

// churnBoot is one incarnation's record.
type churnBoot struct {
	id      core.EndpointID
	ep      *core.Endpoint
	bootAt  time.Duration
	crashAt time.Duration // 0 while alive
	rec     *probe.Recorder
	views   []churnView
}

type churnView struct {
	at time.Duration
	v  *core.View
}

type churnRun struct {
	w      *workload
	o      runOpts
	fab    chaos.Fabric
	st     *builtStack
	epoch  time.Time
	boots  []*churnBoot
	cnt    counters
	lat    *latencySamples
	castAt map[uint64]time.Duration // cast tag → fabric time it was issued
	stats  layerStats               // counters of incarnations that crashed
	fast   uint64
	bad    int

	measStart time.Duration
	measure   time.Duration
	sliceLen  time.Duration
}

// churnFabric passes everything to the simulated fabric and notes
// boots and crashes on the way.
type churnFabric struct {
	chaos.Fabric
	r *churnRun
}

func (f churnFabric) NewEndpoint(site string) *core.Endpoint {
	ep := f.Fabric.NewEndpoint(site)
	r := f.r
	b := &churnBoot{id: ep.ID(), ep: ep, bootAt: f.Now()}
	r.boots = append(r.boots, b)
	ep.SetWireTap(func(dests []core.EndpointID, wire []byte) {
		n := len(dests)
		if n == 0 {
			n = r.w.members
		}
		r.cnt.transmitted(b.rec, n, len(wire))
	})
	return ep
}

func (f churnFabric) Crash(id core.EndpointID) {
	for _, b := range f.r.boots {
		if b.id == id && b.crashAt == 0 {
			b.crashAt = f.Now()
			f.r.collect(b)
		}
	}
	f.Fabric.Crash(id)
}

// collect reads an incarnation's layer counters; after a crash its
// stack is gone.
func (r *churnRun) collect(b *churnBoot) {
	if g := b.ep.Group(churnGroup); g != nil {
		r.stats.add(g)
		r.fast += g.Stack().PlanStats().Fast
	}
	r.bad += b.ep.Malformed()
}

// tapLayer sits above the top protocol layer. It forwards everything,
// with one exception: a member's casts wait until its first full view.
// chaos.Cluster casts from a fresh incarnation at once; TOTAL stamps
// such a cast in the singleton view's order space, MBRSHIP parks it for
// the merge and releases it into the merged view with the stale stamp,
// where it collides with a real one (README, known defects). An
// application that joins before it talks never does that, and waiting
// is what the tap models. The wait counts toward the cast's latency.
type tapLayer struct {
	core.Base
	r      *churnRun
	b      *churnBoot
	joined bool
	held   []*core.Event
}

func (t *tapLayer) Name() string { return "TAP" }

func (t *tapLayer) Down(ev *core.Event) {
	if ev.Type == core.DCast {
		if tag := churnTag(ev.Msg.Body()); tag != 0 {
			t.r.castAt[tag] = t.Ctx.Now()
			t.r.cnt.casts.Add(1)
		}
		if !t.joined {
			t.held = append(t.held, ev)
			return
		}
	}
	t.Ctx.Down(ev)
}

func (t *tapLayer) Up(ev *core.Event) {
	if t.b.rec != nil {
		t.b.rec.App(ev, t.up)
		return
	}
	t.up(ev)
}

func (t *tapLayer) up(ev *core.Event) {
	r := t.r
	switch ev.Type {
	case core.UCast:
		body := ev.Msg.Body()
		r.cnt.deliveries.Add(1)
		r.cnt.appBytes.Add(int64(len(body)))
		if due, ok := r.castAt[churnTag(body)]; ok && r.measure > 0 {
			r.lat.add(due, r.measStart, r.measure, t.Ctx.Now()-due)
		}
	case core.UView:
		t.b.views = append(t.b.views, churnView{t.Ctx.Now(), ev.View})
		if !t.joined && ev.View.Size() == r.w.members {
			t.joined = true
			// Release after this upcall has run to completion.
			t.b.ep.Do(func() {
				for _, h := range t.held {
					t.Ctx.Down(h)
				}
				t.held = nil
			})
		}
	}
	t.Ctx.Up(ev)
}

// churnTag packs the checkers' "s<slot>.<inc>-<seq>" payload into a
// tag; 0 when body is anything else (below FRAG, a wire image).
func churnTag(body []byte) uint64 {
	if len(body) < 6 || len(body) > 32 || body[0] != 's' {
		return 0
	}
	var f [3]uint64
	k := 0
	for _, c := range body[1:] {
		switch {
		case c >= '0' && c <= '9':
			f[k] = f[k]*10 + uint64(c-'0')
		case (c == '.' && k == 0) || (c == '-' && k == 1):
			k++
		default:
			return 0
		}
	}
	if k != 2 {
		return 0
	}
	return (f[0]+1)<<56 | f[1]<<32 | f[2]
}

// stack is chaos.Config.Stack: a fresh spec per boot, for the
// incarnation NewEndpoint just recorded.
func (r *churnRun) stack() core.StackSpec {
	b := r.boots[len(r.boots)-1]
	st, err := buildStack(r.w.stack)
	if err != nil {
		panic(err) // the same string built when the run started
	}
	spec := st.spec
	if r.o.traced {
		b.rec = probe.NewRecorder(r.w.spanCapacity(r.w.measure(r.o), len(r.st.names)), r.epoch, r.fab.Now, churnTag)
		spec = probe.Wrap(spec, b.rec)
	}
	tap := func() core.Layer { return &tapLayer{r: r, b: b} }
	return append(core.StackSpec{tap}, spec...)
}

// bootChurn builds the cluster, forms the group and runs the warm-up.
func bootChurn(w *workload, o runOpts) (*churnRun, *chaos.Cluster, error) {
	st, err := buildStack(w.stack)
	if err != nil {
		return nil, nil, err
	}
	measure := w.measure(o)
	r := &churnRun{w: w, o: o, st: st, epoch: time.Now(), castAt: make(map[uint64]time.Duration)}
	r.lat = newLatencySamples(int(w.rate*float64(w.members)*measure.Seconds()/latBins*1.2) + 1024)
	link := seededLink(w.link, o.seed)
	r.fab = churnFabric{Fabric: chaos.NewSimFabric(o.seed, link), r: r}
	cl := chaos.NewCluster(chaos.Config{
		Seed: o.seed, Members: w.members, Link: link, Fabric: r.fab,
		CastEvery: churnCastTick, ReconcileEvery: churnMergeGap, Stack: r.stack,
	})
	if err := cl.Form(20 * time.Second); err != nil {
		return nil, nil, err
	}
	r.measStart = r.fab.Now() + w.warmup
	r.measure, r.sliceLen = measure, measure/slices
	cl.Run(w.warmup)
	return r, cl, nil
}

// churnSchedule crashes and recovers one slot per cycle, rotating over
// all slots; where in its cycle each crash falls comes from the seed.
func churnSchedule(w *workload, seed int64, cycles int) chaos.Schedule {
	rng := rand.New(rand.NewSource(mixSeed(seed, 0)))
	var s chaos.Schedule
	for k := 0; k < cycles; k++ {
		at := time.Duration(k)*churnCycle + time.Duration(rng.Int63n(int64(churnJitter)))
		s = append(s, chaos.CrashRecover(at, churnDwell, k%w.members)...)
	}
	return s
}

func runChurn(w *workload, o runOpts) (*outcome, error) {
	out := &outcome{}
	var r *churnRun
	var cl *chaos.Cluster
	for i := 0; i < o.setups; i++ {
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		var err error
		if r, cl, err = bootChurn(w, o); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start))
	}
	out.names = r.st.names

	measure := w.measure(o)
	cycles := int(measure / churnCycle)
	runtime.GC()
	cl.Apply(churnSchedule(w, o.seed, cycles))
	out.ph = append(out.ph, r.cnt.snapshot())
	for i := 1; i <= slices; i++ {
		cl.Run(r.measStart + time.Duration(i)*r.sliceLen - r.fab.Now())
		out.ph = append(out.ph, r.cnt.snapshot())
	}
	settleErr := cl.Settle(10 * time.Second)
	cl.Run(w.drain)
	out.total, out.fabricSpan = r.cnt.snapshot(), r.fab.Now()

	for _, b := range r.boots {
		if b.crashAt == 0 {
			r.collect(b)
		}
		if b.rec != nil {
			out.recs = append(out.recs, b.rec)
		}
	}
	out.stats, out.fastCasts, out.malformed = r.stats, r.fast, r.bad
	out.lat = []*latencySamples{r.lat}

	// Operations: every delivery any incarnation recorded. They fail by
	// a checker violation or by disagreement on the order of deliveries
	// within a view. LOST_MESSAGE reports are not failures here: every
	// rejoin draws one per existing member for the history before the
	// join, and chaos.CheckFIFO forgives exactly the holes reported.
	for _, h := range cl.Histories {
		for _, d := range h.Deliveries {
			if !d.Lost {
				out.attempted++
			}
		}
		var hash uint64 = 14695981039346656037
		for _, d := range h.Deliveries {
			hash = (hash ^ churnTag([]byte(d.Payload))) * 1099511628211
		}
		out.hashes = append(out.hashes, hash)
		out.counts = append(out.counts, int64(len(h.Deliveries)))
	}
	out.fail.Violation = int64(len(cl.Check()))
	if settleErr != nil {
		out.fail.Violation++
	}
	out.fail.Disagreed = churnOrderViolations(cl.Histories)
	r.viewTimes(out)
	return out, nil
}

// churnOrderViolations counts deliveries that break total order: two
// members that delivered the same two casts in one view must have
// delivered them in the same order. Per view, the longest delivery
// sequence is the reference; in every other member's sequence the
// casts the reference also has must appear at increasing positions.
func churnOrderViolations(hs []*chaos.History) int64 {
	perView := make(map[core.ViewID][][]string)
	for _, h := range hs {
		seqs := make(map[core.ViewID][]string)
		for _, d := range h.Deliveries {
			if !d.Lost {
				seqs[d.View] = append(seqs[d.View], d.Payload)
			}
		}
		for v, s := range seqs {
			perView[v] = append(perView[v], s)
		}
	}
	var bad int64
	for _, seqs := range perView {
		ref := seqs[0]
		for _, s := range seqs[1:] {
			if len(s) > len(ref) {
				ref = s
			}
		}
		pos := make(map[string]int, len(ref))
		for i, p := range ref {
			pos[p] = i
		}
		for _, s := range seqs {
			last := -1
			for _, p := range s {
				i, ok := pos[p]
				if !ok {
					continue
				}
				if i < last {
					bad++
				} else {
					last = i
				}
			}
		}
	}
	return bad
}

// viewTimes derives crash→view and join→view from the tap's view log.
func (r *churnRun) viewTimes(out *outcome) {
	alive := func(b *churnBoot, at time.Duration) bool {
		return b.bootAt <= at && (b.crashAt == 0 || b.crashAt > at)
	}
	// first view installed at b after `after` that satisfies ok.
	firstView := func(b *churnBoot, after time.Duration, ok func(*core.View) bool) (time.Duration, bool) {
		for _, v := range b.views {
			if v.at >= after && ok(v.v) {
				return v.at, true
			}
		}
		return 0, false
	}
	for i, b := range r.boots {
		if b.crashAt >= r.measStart && b.crashAt > 0 {
			out.crashAt = append(out.crashAt, int64(b.crashAt))
			// Every survivor installs a view without the crashed member.
			var worst time.Duration
			complete := true
			for _, s := range r.boots {
				if s == b || !alive(s, b.crashAt) {
					continue
				}
				at, ok := firstView(s, b.crashAt, func(v *core.View) bool { return !v.Contains(b.id) })
				if !ok {
					complete = false
					break
				}
				if at-b.crashAt > worst {
					worst = at - b.crashAt
				}
			}
			if complete {
				out.crashView = append(out.crashView, int64(worst))
			}
		}
		if i >= r.w.members && b.bootAt >= r.measStart {
			// A recovered incarnation: every member, it included,
			// installs the full view that contains it.
			var worst time.Duration
			complete := true
			for _, s := range r.boots {
				if !alive(s, b.bootAt) {
					continue
				}
				at, ok := firstView(s, b.bootAt, func(v *core.View) bool {
					return v.Contains(b.id) && v.Size() == r.w.members
				})
				if !ok {
					complete = false
					break
				}
				if at-b.bootAt > worst {
					worst = at - b.bootAt
				}
			}
			if complete {
				out.joinView = append(out.joinView, int64(worst))
			}
		}
	}
}
