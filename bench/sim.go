package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"horus/bench/probe"
	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/property"
)

// simMember is one endpoint of one group on the simulated fabric.
type simMember struct {
	gi, mi int
	ep     *core.Endpoint
	g      *core.Group
	rec    *probe.Recorder
	view   int // size of the last view installed
}

// simCluster is a booted simLoad workload: groups × members endpoints
// on one netsim network, with the open-loop generator armed.
type simCluster struct {
	w       *workload
	net     *netsim.Network
	names   []string
	members [][]*simMember
	ledgers []*groupLedger
	cnt     counters
	lat     *latencySamples
	fill    filler

	measStart time.Duration // fabric time the measure phase begins
	measure   time.Duration
	sliceLen  time.Duration
	genStop   time.Duration // no cast is due at or after this
}

// mixSeed derives an independent stream seed (splitmix64 finalizer).
func mixSeed(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// seededLink lengthens the link's one-way delay by up to 4 %, drawn
// from the seed. The delay is an input like any other; drawing it keeps
// a virtual-time latency from reading the same on every seed where
// nothing else varies it (a lossless link under the waist: every
// delivery takes exactly the link delay). The draw is one-sided on
// purpose: protocol timers are whole milliseconds, so a delay on either
// side of 1 ms would flip which of a packet and a timer due at the same
// instant runs first, and with it the workload's behaviour.
func seededLink(l netsim.Link, seed int64) netsim.Link {
	u := rand.New(rand.NewSource(mixSeed(seed, -1))).Float64()
	l.Delay += time.Duration(u * 0.04 * float64(l.Delay))
	return l
}

// bootSim builds the stack, boots every endpoint, forms the groups,
// arms the generator and runs the warm-up: everything setup_s covers.
func bootSim(w *workload, o runOpts) (*simCluster, error) {
	measure := w.measure(o)
	c := &simCluster{
		w:    w,
		net:  netsim.New(netsim.Config{Seed: o.seed, DefaultLink: seededLink(w.link, o.seed)}),
		fill: newFiller(o.seed, w.body),
	}
	c.measure = measure
	c.lat = newLatencySamples(int(w.rate*float64(w.groups*w.members)*measure.Seconds()/latBins*1.2) + 1024)

	st, err := buildStack(w.stack)
	if err != nil {
		return nil, err
	}
	spec, merges := st.spec, st.merges
	c.names = st.names
	epoch := time.Now()
	for gi := 0; gi < w.groups; gi++ {
		addr := core.GroupAddr(fmt.Sprintf("bench/g%d", gi))
		c.ledgers = append(c.ledgers, newGroupLedger(w.members, st.props.Has(property.P6)))
		row := make([]*simMember, w.members)
		ids := make([]core.EndpointID, w.members)
		for mi := range row {
			m := &simMember{gi: gi, mi: mi, ep: c.net.NewEndpoint(fmt.Sprintf("g%d-m%d", gi, mi))}
			row[mi], ids[mi] = m, m.ep.ID()
			mspec, handler := spec, core.Handler(func(ev *core.Event) { c.handle(m, ev) })
			if o.traced {
				m.rec = probe.NewRecorder(w.spanCapacity(measure, len(c.names)), epoch, c.net.Now, payloadTag)
				mspec = probe.Wrap(spec, m.rec)
				inner := handler
				handler = func(ev *core.Event) { m.rec.App(ev, inner) }
			}
			m.ep.SetWireTap(func(dests []core.EndpointID, wire []byte) {
				n := len(dests)
				if n == 0 {
					n = w.members
				}
				c.cnt.transmitted(m.rec, n, len(wire))
			})
			if m.g, err = m.ep.Join(addr, mspec, handler); err != nil {
				return nil, err
			}
		}
		c.members = append(c.members, row)
		if !merges {
			v := core.NewView(core.ViewID{Seq: 1, Coord: ids[0]}, addr, ids)
			for _, m := range row {
				m.g.InstallView(v)
			}
		}
	}
	if merges {
		if err := c.form(); err != nil {
			return nil, err
		}
	}

	c.measStart = c.net.Now() + w.warmup
	c.sliceLen = measure / slices
	c.genStop = c.measStart + measure
	for gi := range c.members {
		c.armGenerator(gi, rand.New(rand.NewSource(mixSeed(o.seed, gi))))
	}
	c.net.RunUntil(c.measStart)
	return c, nil
}

// form merges every group's members into one view, retrying denied or
// lost merge requests the way any client of MBRSHIP must.
func (c *simCluster) form() error {
	for _, row := range c.members {
		contact := row[0].ep.ID()
		for i, m := range row[1:] {
			var try func()
			try = func() {
				if m.view >= c.w.members {
					return
				}
				m.g.Merge(contact)
				c.net.At(c.net.Now()+150*time.Millisecond, try)
			}
			c.net.At(c.net.Now()+time.Duration(i+1)*50*time.Millisecond, try)
		}
	}
	deadline := c.net.Now() + 20*time.Second
	for c.net.Now() < deadline {
		c.net.RunFor(50 * time.Millisecond)
		if c.formed() {
			// Let the merge retry timers see the full view and stop.
			c.net.RunFor(200 * time.Millisecond)
			return nil
		}
	}
	return fmt.Errorf("%s: groups did not form full views within 20 s of fabric time", c.w.name)
}

func (c *simCluster) formed() bool {
	for _, row := range c.members {
		for _, m := range row {
			if m.view != c.w.members {
				return false
			}
		}
	}
	return true
}

// armGenerator starts group gi's Poisson arrival stream. Each firing
// schedules the next, so the stream is a chain of fabric timers and a
// cast is issued exactly when it is due.
func (c *simCluster) armGenerator(gi int, rng *rand.Rand) {
	w := c.w
	next := c.net.Now()
	var fire func()
	schedule := func() {
		next += time.Duration(rng.ExpFloat64() / w.rate * float64(time.Second))
		if next < c.genStop {
			c.net.At(next, fire)
		}
	}
	fire = func() {
		sender := rng.Intn(w.members)
		seq := c.ledgers[gi].cast(sender)
		c.cnt.casts.Add(1)
		c.members[gi][sender].g.Cast(message.New(c.fill.newPayload(w.body, sender, seq, next)))
		schedule()
	}
	schedule()
}

func (c *simCluster) handle(m *simMember, ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		body := ev.Msg.Body()
		sender, seq, due, ok := parsePayload(body)
		if !ok {
			return
		}
		c.cnt.deliveries.Add(1)
		c.cnt.appBytes.Add(int64(len(body)))
		c.ledgers[m.gi].deliver(m.mi, sender, seq)
		c.lat.add(due, c.measStart, c.measure, c.net.Now()-due)
	case core.ULostMessage:
		if ev.Source != m.ep.ID() {
			c.ledgers[m.gi].lostMessage(m.mi)
		}
	case core.UView:
		m.view = ev.View.Size()
	}
}

// runSim runs a simLoad workload once: set-ups, measure phase in ten
// slices, drain, checks.
func runSim(w *workload, o runOpts) (*outcome, error) {
	out := &outcome{}
	var c *simCluster
	for i := 0; i < o.setups; i++ {
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		var err error
		if c, err = bootSim(w, o); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start))
	}
	out.names = c.names

	// Start from a collected heap, so the first slice does not pay for
	// the garbage of the set-ups.
	runtime.GC()
	simBefore := c.net.Stats()
	out.ph = append(out.ph, c.cnt.snapshot())
	for i := 1; i <= slices; i++ {
		c.net.RunUntil(c.measStart + time.Duration(i)*c.sliceLen)
		out.ph = append(out.ph, c.cnt.snapshot())
	}
	out.sim = statsDelta(simBefore, c.net.Stats())
	c.net.RunFor(w.drain)
	out.total, out.fabricSpan = c.cnt.snapshot(), c.net.Now()

	out.lat = []*latencySamples{c.lat}
	for gi, row := range c.members {
		att, f := c.ledgers[gi].finish()
		out.attempted += att
		out.fail.add(f)
		for mi, m := range row {
			r := &c.ledgers[gi].recv[mi]
			out.hashes = append(out.hashes, r.hash)
			out.counts = append(out.counts, r.count)
			out.stats.add(m.g)
			out.fastCasts += m.g.Stack().PlanStats().Fast
			out.malformed += m.ep.Malformed()
			if m.rec != nil {
				out.recs = append(out.recs, m.rec)
			}
		}
	}
	return out, nil
}

// statsDelta is b - a for the ledger fields the metrics use.
func statsDelta(a, b netsim.Stats) netsim.Stats {
	return netsim.Stats{Sent: b.Sent - a.Sent, Lost: b.Lost - a.Lost, Bytes: b.Bytes - a.Bytes}
}
