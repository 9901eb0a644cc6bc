package loadgen

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"horus/internal/chaos"
	"horus/internal/core"
	"horus/internal/layers/adapt"
	"horus/internal/layers/com"
	"horus/internal/layers/nak"
	"horus/internal/layers/total"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/property"
)

// Config parameterizes one load run: cluster shape, stack arm,
// offered load, and the phase timeline. The zero value is unusable;
// call fill (done by Run) or start from a literal.
type Config struct {
	// Seed drives the arrival processes and sender choices. On the
	// simulated fabric it fully determines every number in the Result.
	Seed int64
	// Stack selects the protocol arm: "fifo" (NAK:COM), "total"
	// (TOTAL:NAK:COM), or "adapt" (ADAPT:NAK:COM).
	Stack string
	// Groups and Members set the cluster shape: Groups independent
	// process groups of Members endpoints each.
	Groups, Members int
	// Rate is the offered cast rate per group in casts/sec, split
	// across the cohorts by their fractions.
	Rate float64
	// Body is the cast payload size in bytes (minimum 16: an 8-byte
	// send timestamp plus an 8-byte sequence tag).
	Body int
	// Warmup, Measure, Drain partition the run: arrivals flow during
	// Warmup+Measure, metrics credit only casts sent inside Measure,
	// and Drain lets in-flight deliveries land before accounting.
	Warmup, Measure, Drain time.Duration
	// Window is the goodput accounting window width inside Measure.
	Window time.Duration
	// Cohorts is the workload mix; nil means DefaultCohorts.
	Cohorts []CohortSpec
	// Host, when non-zero, installs a per-endpoint egress budget —
	// the finite capacity that makes saturation reachable.
	Host netsim.Host
}

// fill applies defaults in place and returns the config.
func (c Config) fill() Config {
	if c.Stack == "" {
		c.Stack = "fifo"
	}
	if c.Groups <= 0 {
		c.Groups = 100
	}
	if c.Members <= 0 {
		c.Members = 10
	}
	if c.Rate <= 0 {
		c.Rate = 200
	}
	if c.Body < 16 {
		c.Body = 64
	}
	if c.Warmup <= 0 {
		c.Warmup = 200 * time.Millisecond
	}
	if c.Measure <= 0 {
		c.Measure = time.Second
	}
	if c.Drain <= 0 {
		c.Drain = 300 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 250 * time.Millisecond
	}
	if len(c.Cohorts) == 0 {
		c.Cohorts = DefaultCohorts()
	}
	return c
}

// StackSpecFor returns the composed spec and layer names for a load
// arm, verifying well-formedness over a substrate providing
// P1|ExternalViews — the harness substitutes an external membership
// service (mass InstallView) for an in-stack MBRSHIP layer.
func StackSpecFor(arm string) (core.StackSpec, []string, error) {
	// Timer tuning: status/NAK periods well under the measurement
	// window so loss recovery shows up as latency, not as truncation;
	// suspicion off — membership is external and static.
	nakF := nak.NewWith(
		nak.WithStatusPeriod(20*time.Millisecond),
		nak.WithNakResend(15*time.Millisecond),
		nak.WithSuspectAfter(0),
	)
	var (
		spec  core.StackSpec
		names []string
	)
	switch strings.ToLower(arm) {
	case "fifo":
		names = []string{"NAK", "COM"}
		spec = core.StackSpec{nakF, com.New}
	case "total":
		names = []string{"TOTAL", "NAK", "COM"}
		spec = core.StackSpec{total.NewWith(total.WithRequestRetry(50 * time.Millisecond)), nakF, com.New}
	case "adapt":
		names = []string{"ADAPT", "NAK", "COM"}
		spec = core.StackSpec{adapt.New, nakF, com.New}
	default:
		return nil, nil, fmt.Errorf("loadgen: unknown stack arm %q (want fifo, total, or adapt)", arm)
	}
	if _, err := property.Derive(property.P1|property.ExternalViews, names); err != nil {
		return nil, nil, fmt.Errorf("loadgen: arm %q not well-formed: %w", arm, err)
	}
	return spec, names, nil
}

// WindowStats is the goodput ledger for one accounting window.
// Deliveries are credited to the window their cast was sent in, so
// Offered and Delivered are directly comparable.
type WindowStats struct {
	Start     time.Duration `json:"start_ns"`
	Offered   uint64        `json:"offered"`
	Expected  uint64        `json:"expected"`
	Delivered uint64        `json:"delivered"`
	// Ledger is the fabric packet-ledger delta over the window's wall
	// span, when the fabric exposes one (netsim does; UDP does not).
	Ledger *netsim.Stats `json:"ledger,omitempty"`
}

// Result is everything one run measured.
type Result struct {
	Seed    int64   `json:"seed"`
	Stack   string  `json:"stack"`
	Groups  int     `json:"groups"`
	Members int     `json:"members"`
	Rate    float64 `json:"rate_cps"` // configured casts/sec per group

	// OfferedCasts counts casts sent inside the measure window,
	// cluster-wide; Expected = OfferedCasts × Members (every member
	// delivers, sender included).
	OfferedCasts uint64  `json:"offered_casts"`
	Expected     uint64  `json:"expected"`
	Delivered    uint64  `json:"delivered"`
	Ratio        float64 `json:"ratio"`       // Delivered / Expected
	OfferedRate  float64 `json:"offered_cps"` // measured, cluster-wide
	Goodput      float64 `json:"goodput_dps"` // deliveries/sec, cluster-wide

	Mean time.Duration `json:"mean_ns"`
	P50  time.Duration `json:"p50_ns"`
	P95  time.Duration `json:"p95_ns"`
	P99  time.Duration `json:"p99_ns"`
	Max  time.Duration `json:"max_ns"`

	Windows []WindowStats `json:"windows"`
	Lost    uint64        `json:"lost"` // LOST_MESSAGE upcalls
	Shed    int           `json:"shed"` // ADAPT casts dropped, summed

	// Ledger is the fabric packet-ledger delta over the whole run,
	// when available.
	Ledger *netsim.Stats `json:"ledger,omitempty"`

	// Hist is the merged cluster latency histogram (measured casts
	// only). Excluded from snapshots; quantiles above summarize it.
	Hist *Hist `json:"-"`
}

// collector accumulates metrics. A single mutex serializes handler
// deliveries: uncontended on the simulated fabric (one event-loop
// goroutine), required on UDP where socket readers deliver
// concurrently.
type collector struct {
	mu       sync.Mutex
	warm     time.Duration
	measEnd  time.Duration
	window   time.Duration
	members  int
	offered  []uint64
	deliv    []uint64
	perGroup []*Hist
	lost     uint64
}

func newCollector(cfg Config) *collector {
	nwin := int((cfg.Measure + cfg.Window - 1) / cfg.Window)
	c := &collector{
		warm:     cfg.Warmup,
		measEnd:  cfg.Warmup + cfg.Measure,
		window:   cfg.Window,
		members:  cfg.Members,
		offered:  make([]uint64, nwin),
		deliv:    make([]uint64, nwin),
		perGroup: make([]*Hist, cfg.Groups),
	}
	for i := range c.perGroup {
		c.perGroup[i] = NewHist()
	}
	return c
}

// win maps a send time to its accounting window, or -1 outside the
// measure span.
func (c *collector) win(sentAt time.Duration) int {
	if sentAt < c.warm || sentAt >= c.measEnd {
		return -1
	}
	w := int((sentAt - c.warm) / c.window)
	if w >= len(c.offered) {
		w = len(c.offered) - 1
	}
	return w
}

func (c *collector) offeredCast(sentAt time.Duration) {
	w := c.win(sentAt)
	if w < 0 {
		return
	}
	c.mu.Lock()
	c.offered[w]++
	c.mu.Unlock()
}

func (c *collector) deliveredCast(gi int, sentAt, now time.Duration) {
	w := c.win(sentAt)
	if w < 0 {
		return
	}
	c.mu.Lock()
	c.deliv[w]++
	c.perGroup[gi].Record(now - sentAt)
	c.mu.Unlock()
}

func (c *collector) lostMessage() {
	c.mu.Lock()
	c.lost++
	c.mu.Unlock()
}

// ledgerFabric is the optional fabric capability the windowed packet
// ledger is sampled through.
type ledgerFabric interface {
	Stats() netsim.Stats
}

// statsDelta returns b - a field-wise.
func statsDelta(a, b netsim.Stats) netsim.Stats {
	return netsim.Stats{
		Sent:            b.Sent - a.Sent,
		Delivered:       b.Delivered - a.Delivered,
		Lost:            b.Lost - a.Lost,
		Garbled:         b.Garbled - a.Garbled,
		Duplicated:      b.Duplicated - a.Duplicated,
		Blocked:         b.Blocked - a.Blocked,
		Bytes:           b.Bytes - a.Bytes,
		Reordered:       b.Reordered - a.Reordered,
		Throttled:       b.Throttled - a.Throttled,
		Congested:       b.Congested - a.Congested,
		CollapseDropped: b.CollapseDropped - a.CollapseDropped,
	}
}

// Run executes one load run over the fabric and returns its metrics.
// The fabric must be fresh (no prior endpoints); the caller owns its
// lifecycle and Close.
func Run(f chaos.Fabric, cfg Config) (*Result, error) {
	cfg = cfg.fill()
	spec, _, err := StackSpecFor(cfg.Stack)
	if err != nil {
		return nil, err
	}

	coll := newCollector(cfg)
	span := cfg.Warmup + cfg.Measure + cfg.Drain

	// Boot the cluster: Groups×Members endpoints, one group each.
	// Identity order is fabric call order, so the whole topology is a
	// pure function of the config.
	eps := make([][]*core.Endpoint, cfg.Groups)
	groups := make([][]*core.Group, cfg.Groups)
	for gi := 0; gi < cfg.Groups; gi++ {
		eps[gi] = make([]*core.Endpoint, cfg.Members)
		groups[gi] = make([]*core.Group, cfg.Members)
		for mi := 0; mi < cfg.Members; mi++ {
			ep := f.NewEndpoint(fmt.Sprintf("g%d-m%d", gi, mi))
			if cfg.Host != (netsim.Host{}) {
				f.SetHost(ep.ID(), cfg.Host)
			}
			eps[gi][mi] = ep
		}
		addr := core.GroupAddr(fmt.Sprintf("load/g%d", gi))
		ids := make([]core.EndpointID, cfg.Members)
		for mi, ep := range eps[gi] {
			ids[mi] = ep.ID()
		}
		for mi, ep := range eps[gi] {
			gi := gi
			g, err := ep.Join(addr, spec, func(ev *core.Event) {
				switch ev.Type {
				case core.UCast:
					body := ev.Msg.Body()
					if len(body) >= 8 {
						sentAt := time.Duration(binary.BigEndian.Uint64(body))
						coll.deliveredCast(gi, sentAt, f.Now())
					}
				case core.ULostMessage:
					coll.lostMessage()
				}
			})
			if err != nil {
				return nil, fmt.Errorf("loadgen: join g%d-m%d: %w", gi, mi, err)
			}
			groups[gi][mi] = g
		}
		// External membership service: install the same static view at
		// every member before traffic (see property.ExternalViews).
		v := core.NewView(core.ViewID{Seq: 1, Coord: ids[0]}, addr, ids)
		for _, g := range groups[gi] {
			g.InstallView(v)
		}
	}

	// Arm the open-loop arrival streams. Each (group, cohort) stream
	// re-arms itself from inside its own firing, so generator access
	// is serial even on a wall-clock fabric's timer goroutines.
	for gi := 0; gi < cfg.Groups; gi++ {
		gi := gi
		for ci, cs := range cfg.Cohorts {
			gen := newArrivalGen(mixSeed(cfg.Seed, gi, ci), cs, cfg.Rate*cs.Fraction, cfg.Warmup+cfg.Measure)
			pick := rand.New(rand.NewSource(mixSeed(cfg.Seed, gi, ci) ^ 0x5bd1e995))
			body := cfg.Body
			if cs.Body > 0 {
				body = cs.Body
			}
			if body < 16 {
				body = 16
			}
			var seq uint64
			var arm func(t time.Duration)
			fire := func(t time.Duration) {
				coll.offeredCast(t)
				payload := make([]byte, body)
				binary.BigEndian.PutUint64(payload, uint64(f.Now()))
				seq++
				binary.BigEndian.PutUint64(payload[8:], seq)
				groups[gi][pick.Intn(cfg.Members)].Cast(message.New(payload))
			}
			arm = func(t time.Duration) {
				fire(t)
				if nt, ok := gen.next(); ok {
					f.At(nt, func() { arm(nt) })
				}
			}
			if t, ok := gen.next(); ok {
				f.At(t, func() { arm(t) })
			}
		}
	}

	// Windowed fabric-ledger sampling at window boundaries.
	var (
		ls, hasLedger = f.(ledgerFabric)
		boundarySnaps []netsim.Stats
		preRun        netsim.Stats
	)
	if hasLedger {
		preRun = ls.Stats()
		nwin := len(coll.offered)
		boundarySnaps = make([]netsim.Stats, nwin+1)
		for i := 0; i <= nwin; i++ {
			i := i
			at := cfg.Warmup + time.Duration(i)*cfg.Window
			if at > cfg.Warmup+cfg.Measure {
				at = cfg.Warmup + cfg.Measure
			}
			f.At(at, func() {
				s := ls.Stats()
				coll.mu.Lock()
				boundarySnaps[i] = s
				coll.mu.Unlock()
			})
		}
	}

	f.RunFor(span)

	// Assemble the result. Focus/Stats reads go through Endpoint.Do so
	// they serialize with any still-armed layer timers on UDP.
	res := &Result{
		Seed:    cfg.Seed,
		Stack:   strings.ToLower(cfg.Stack),
		Groups:  cfg.Groups,
		Members: cfg.Members,
		Rate:    cfg.Rate,
		Hist:    NewHist(),
	}
	coll.mu.Lock()
	for w := range coll.offered {
		ws := WindowStats{
			Start:     cfg.Warmup + time.Duration(w)*cfg.Window,
			Offered:   coll.offered[w],
			Expected:  coll.offered[w] * uint64(cfg.Members),
			Delivered: coll.deliv[w],
		}
		if hasLedger {
			d := statsDelta(boundarySnaps[w], boundarySnaps[w+1])
			ws.Ledger = &d
		}
		res.Windows = append(res.Windows, ws)
		res.OfferedCasts += ws.Offered
		res.Delivered += ws.Delivered
	}
	for _, h := range coll.perGroup {
		res.Hist.Merge(h)
	}
	res.Lost = coll.lost
	coll.mu.Unlock()

	res.Expected = res.OfferedCasts * uint64(cfg.Members)
	if res.Expected > 0 {
		res.Ratio = float64(res.Delivered) / float64(res.Expected)
	}
	secs := cfg.Measure.Seconds()
	res.OfferedRate = float64(res.OfferedCasts) / secs
	res.Goodput = float64(res.Delivered) / secs
	res.Mean = res.Hist.Mean()
	res.P50 = res.Hist.Quantile(0.50)
	res.P95 = res.Hist.Quantile(0.95)
	res.P99 = res.Hist.Quantile(0.99)
	res.Max = res.Hist.Max()
	if hasLedger {
		d := statsDelta(preRun, ls.Stats())
		res.Ledger = &d
	}
	for gi := range groups {
		for _, g := range groups[gi] {
			if l := g.Focus("ADAPT"); l != nil {
				g.Endpoint().Do(func() {
					if a, ok := l.(*adapt.Adapt); ok {
						res.Shed += a.Stats().Shed
					}
				})
			}
		}
	}
	return res, nil
}
