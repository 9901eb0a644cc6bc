// Package nnak implements the NNAK layer: prioritized-effort delivery,
// property P2 of Table 3.
//
// Where NAK upgrades best effort to reliable FIFO, NNAK stays at best
// effort but orders competing transmissions by priority: outgoing
// messages enter per-priority queues and a pacing timer releases them
// highest-priority first. Real-time-ish traffic (Figure 1's "real-time"
// protocol type asks for guaranteed bounds; NNAK is the best-effort
// approximation) jumps the queue of bulk traffic.
//
// Properties: requires P1, P10, P11; provides P2.
package nnak

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"horus/internal/core"
)

// pace is the release interval between queued messages.
const pace = time.Millisecond

// New returns an NNAK layer.
func New() core.Layer { return &Nnak{} }

// Nnak is one NNAK layer instance.
type Nnak struct {
	core.Base
	queues map[int32][]*core.Event // priority -> FIFO queue
	prios  []int32                 // sorted descending
	pacing core.Timer[Nnak]        // armed from a send until the next may go (release)
	stats  Stats
}

// Stats counts NNAK activity.
type Stats struct {
	Sent     int
	MaxQueue int
}

// Name implements core.Layer.
func (n *Nnak) Name() string { return "NNAK" }

// Stats returns a snapshot of the layer's counters.
func (n *Nnak) Stats() Stats { return n.stats }

// Init implements core.Layer.
func (n *Nnak) Init(c *core.Context) error {
	if err := n.Base.Init(c); err != nil {
		return err
	}
	n.queues = make(map[int32][]*core.Event)
	n.pacing.Bind(c, n, (*Nnak).release)
	return nil
}

// Down implements core.Layer.
func (n *Nnak) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend:
		n.enqueue(ev)
		n.release()
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("NNAK: sent=%d queued=%d maxqueue=%d",
			n.stats.Sent, n.queueLen(), n.stats.MaxQueue))
		n.Ctx.Down(ev)
	default:
		n.Ctx.Down(ev)
	}
}

// Up implements core.Layer: NNAK adds no header, so arrivals pass
// through untouched.
func (n *Nnak) Up(ev *core.Event) { n.Ctx.Up(ev) }

func (n *Nnak) enqueue(ev *core.Event) {
	p := ev.Priority
	if _, ok := n.queues[p]; !ok {
		n.prios = append(n.prios, p)
		slices.SortFunc(n.prios, func(a, b int32) int { return cmp.Compare(b, a) })
	}
	n.Ctx.Hold(ev)
	n.queues[p] = append(n.queues[p], ev)
	if l := n.queueLen(); l > n.stats.MaxQueue {
		n.stats.MaxQueue = l
	}
}

// release sends the highest-priority queued message, then paces: no
// further send happens until the pacing interval elapses, even if it
// was queued later at higher priority. Only a release with the timer
// disarmed arms it, so one pacing wait is outstanding at a time.
func (n *Nnak) release() {
	if n.pacing.Armed() {
		return
	}
	for _, p := range n.prios {
		q := n.queues[p]
		if len(q) == 0 {
			continue
		}
		ev := q[0]
		n.queues[p] = q[1:]
		n.stats.Sent++
		n.Ctx.Down(ev)
		n.pacing.Reset(pace)
		return
	}
}

func (n *Nnak) queueLen() int {
	total := 0
	for _, q := range n.queues {
		total += len(q)
	}
	return total
}
