package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"horus/bench/probe"
	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/udpnet"
)

// udpMember is one endpoint on its own loopback socket. Everything in
// it except g and tr is touched only from the endpoint's executor.
type udpMember struct {
	mi  int
	tr  *udpnet.Transport
	ep  *core.Endpoint
	g   *core.Group
	rec *probe.Recorder
	lat *latencySamples
}

// udpCluster is a booted udpLoad workload. The generator runs on the
// caller's goroutine; deliveries arrive on the two socket readers.
type udpCluster struct {
	w       *workload
	names   []string
	members []*udpMember
	ledger  *groupLedger
	cnt     counters
	fill    filler
	rng     *rand.Rand
	epoch   time.Time     // the fabric clock's zero
	next    time.Duration // due time of the next cast

	measStart time.Duration
	measure   time.Duration
	sliceLen  time.Duration
	lateness  []int64
}

func (c *udpCluster) now() time.Duration { return time.Since(c.epoch) }

// bootUDP opens the sockets, builds and joins the stacks, installs the
// view and paces the warm-up casts.
func bootUDP(w *workload, o runOpts) (*udpCluster, error) {
	measure := w.measure(o)
	c := &udpCluster{w: w, fill: newFiller(o.seed, w.body), epoch: time.Now(),
		rng: rand.New(rand.NewSource(mixSeed(o.seed, 0)))}
	st, err := buildStack(w.stack)
	if err != nil {
		return nil, err
	}
	c.names = st.names
	c.ledger = newGroupLedger(w.members, false)
	c.ledger.noSelf = true
	// The schedule is fixed before any reader goroutine exists, so the
	// handlers may read it without synchronisation.
	c.next = udpBootBudget
	c.measStart = c.next + w.warmup
	c.measure, c.sliceLen = measure, measure/slices
	c.lateness = make([]int64, 0, int(w.rate*measure.Seconds()*1.2)+1024)
	perBin := int(w.rate*measure.Seconds()/latBins*1.2) + 1024

	ids := make([]core.EndpointID, w.members)
	for mi := 0; mi < w.members; mi++ {
		ids[mi] = core.EndpointID{Site: fmt.Sprintf("u%d", mi), Birth: uint64(mi + 1)}
		tr, err := udpnet.Listen("127.0.0.1:0", ids[mi])
		if err != nil {
			c.close()
			return nil, err
		}
		c.members = append(c.members, &udpMember{mi: mi, tr: tr, lat: newLatencySamples(perBin)})
	}
	addr := core.GroupAddr("bench/udp")
	for _, m := range c.members {
		// Every other endpoint is a peer; an endpoint is not its own.
		// NAK repairs a datagram the kernel drops only on streams whose
		// receiver acknowledges, and a sender never acknowledges its own
		// loopback stream (README, known defects): a self-addressed
		// datagram lost to a full socket buffer would stay lost.
		for i, peer := range c.members {
			if peer != m {
				m.tr.AddPeer(ids[i], peer.tr.Addr())
			}
		}
		m.ep = m.tr.NewEndpoint()
		spec, handler := st.spec, core.Handler(func(ev *core.Event) { c.handle(m, ev) })
		if o.traced {
			m.rec = probe.NewRecorder(w.spanCapacity(measure, len(c.names)), c.epoch, c.now, payloadTag)
			spec = probe.Wrap(spec, m.rec)
			inner := handler
			handler = func(ev *core.Event) { m.rec.App(ev, inner) }
		}
		m.ep.SetWireTap(func(dests []core.EndpointID, wire []byte) {
			// udpnet sends one datagram per destination it has an
			// address for: every destination but the sender itself.
			n := 0
			for _, d := range dests {
				if d != m.ep.ID() {
					n++
				}
			}
			if len(dests) == 0 {
				n = w.members - 1
			}
			c.cnt.transmitted(m.rec, n, len(wire))
		})
		if m.g, err = m.ep.Join(addr, spec, handler); err != nil {
			c.close()
			return nil, err
		}
	}
	v := core.NewView(core.ViewID{Seq: 1, Coord: ids[0]}, addr, ids)
	for _, m := range c.members {
		m.g.InstallView(v)
	}

	c.advance()
	// Collect the set-up's garbage while only warm-up casts are in
	// flight, so the measure phase starts from a collected heap.
	c.pace(c.measStart - 20*time.Millisecond)
	runtime.GC()
	c.pace(c.measStart)
	return c, nil
}

// udpBootBudget is when, after the cluster's epoch, the first cast may
// be due: sockets, stacks and the view are up well before that.
const udpBootBudget = 50 * time.Millisecond

// advance draws the next arrival of the Poisson schedule.
func (c *udpCluster) advance() {
	c.next += time.Duration(c.rng.ExpFloat64() / c.w.rate * float64(time.Second))
}

// pace issues every cast due before until, sleeping to the absolute
// schedule: a cast the generator is late for goes out at once and keeps
// its due time, so a stall counts against the casts it delayed. An idle
// Go process wakes from a timer up to a millisecond late; that lateness
// is inside every latency, and is reported on its own as well.
func (c *udpCluster) pace(until time.Duration) {
	for c.next < until {
		if d := c.next - c.now(); d > 0 {
			time.Sleep(d)
		}
		if c.next >= c.measStart {
			c.lateness = append(c.lateness, int64(c.now()-c.next))
		}
		sender := c.rng.Intn(c.w.members)
		seq := c.ledger.cast(sender)
		c.cnt.casts.Add(1)
		c.members[sender].g.Cast(message.New(c.fill.newPayload(c.w.body, sender, seq, c.next)))
		c.advance()
	}
	if d := until - c.now(); d > 0 {
		time.Sleep(d)
	}
}

func (c *udpCluster) handle(m *udpMember, ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		body := ev.Msg.Body()
		sender, seq, due, ok := parsePayload(body)
		if !ok {
			return
		}
		c.cnt.deliveries.Add(1)
		c.cnt.appBytes.Add(int64(len(body)))
		c.ledger.deliver(m.mi, sender, seq)
		m.lat.add(due, c.measStart, c.measure, c.now()-due)
	case core.ULostMessage:
		if ev.Source != m.ep.ID() {
			c.ledger.lostMessage(m.mi)
		}
	}
}

// onExecutor runs fn on ep's executor and waits for it: whatever was
// queued before has run by then, and fn sees the stack at rest.
func onExecutor(ep *core.Endpoint, fn func()) {
	done := make(chan struct{})
	ep.Do(func() { fn(); close(done) })
	<-done
}

// quiesce returns once everything queued on every executor has run.
func (c *udpCluster) quiesce() {
	for _, m := range c.members {
		if m.ep != nil {
			onExecutor(m.ep, func() {})
		}
	}
}

// close destroys the stacks (their timers go inert) and shuts the
// sockets, which ends the reader goroutines.
func (c *udpCluster) close() {
	for _, m := range c.members {
		if m.ep != nil {
			m.ep.Destroy()
		}
	}
	c.quiesce()
	for _, m := range c.members {
		m.tr.Close() // the only error is "already closed"
	}
}

func runUDP(w *workload, o runOpts) (*outcome, error) {
	out := &outcome{}
	var c *udpCluster
	for i := 0; i < o.setups; i++ {
		if c != nil {
			c.close()
		}
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		var err error
		if c, err = bootUDP(w, o); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start))
	}
	defer c.close()
	out.names = c.names

	out.ph = append(out.ph, c.cnt.snapshot())
	for i := 1; i <= slices; i++ {
		c.pace(c.measStart + time.Duration(i)*c.sliceLen)
		out.ph = append(out.ph, c.cnt.snapshot())
	}
	time.Sleep(w.drain)
	c.quiesce()
	out.total, out.fabricSpan = c.cnt.snapshot(), c.now()

	out.attempted, out.fail = c.ledger.finish()
	out.lateness = c.lateness
	for _, m := range c.members {
		onExecutor(m.ep, func() {
			out.stats.add(m.g)
			out.fastCasts += m.g.Stack().PlanStats().Fast
		})
		r := &c.ledger.recv[m.mi]
		out.hashes = append(out.hashes, r.hash)
		out.counts = append(out.counts, r.count)
		out.malformed += m.ep.Malformed()
		out.lat = append(out.lat, m.lat)
		s := m.tr.Stats()
		out.udp.SendErrors += s.SendErrors
		out.udp.Oversized += s.Oversized
		out.udp.Malformed += s.Malformed
		out.udp.Truncated += s.Truncated
		if m.rec != nil {
			out.recs = append(out.recs, m.rec)
		}
	}
	return out, nil
}
