// Package trace implements the tracing layer (Figure 1: "debugging,
// statistics"). It is transparent on the wire — no header, no
// behaviour change — and records every event crossing it in both
// directions, with per-type counters and a bounded event log, all
// inspectable through the focus downcall.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"horus/internal/core"
)

// Record is one logged event crossing.
type Record struct {
	Down bool // direction
	Type core.EventType
	Size int // wire size of the message, if any
	At   string
}

// Trace is one tracing layer instance.
type Trace struct {
	core.Base
	downCount map[core.EventType]int
	upCount   map[core.EventType]int
	log       []Record
}

// LogSize is how many of the latest event records the log keeps.
const LogSize = 128

// New returns a tracing layer.
func New() core.Layer { return &Trace{} }

// Name implements core.Layer.
func (t *Trace) Name() string { return "TRACE" }

// Counts returns per-type counters for one direction.
func (t *Trace) Counts(down bool) map[core.EventType]int {
	src := t.upCount
	if down {
		src = t.downCount
	}
	out := make(map[core.EventType]int, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// Log returns the retained event records, oldest first.
func (t *Trace) Log() []Record { return append([]Record(nil), t.log...) }

// Init implements core.Layer.
func (t *Trace) Init(c *core.Context) error {
	if err := t.Base.Init(c); err != nil {
		return err
	}
	t.downCount = make(map[core.EventType]int)
	t.upCount = make(map[core.EventType]int)
	return nil
}

// Down implements core.Layer.
func (t *Trace) Down(ev *core.Event) {
	t.record(true, ev)
	if ev.Type == core.DDump {
		ev.Dump = append(ev.Dump, "TRACE: "+t.summary())
	}
	t.Ctx.Down(ev)
}

// Up implements core.Layer.
func (t *Trace) Up(ev *core.Event) {
	t.record(false, ev)
	t.Ctx.Up(ev)
}

func (t *Trace) record(down bool, ev *core.Event) {
	if down {
		t.downCount[ev.Type]++
	} else {
		t.upCount[ev.Type]++
	}
	size := 0
	if ev.Msg != nil {
		size = ev.Msg.Len()
	}
	r := Record{Down: down, Type: ev.Type, Size: size, At: t.Ctx.Now().String()}
	t.log = append(t.log, r)
	if len(t.log) > LogSize {
		t.log = t.log[len(t.log)-LogSize:]
	}
	t.Ctx.Tracef("trace %s: %s %v", t.Ctx.Self(), dir(down), ev)
}

func dir(down bool) string {
	if down {
		return "v"
	}
	return "^"
}

func (t *Trace) summary() string {
	var parts []string
	for _, m := range []map[core.EventType]int{t.downCount, t.upCount} {
		keys := make([]core.EventType, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%v=%d", k, m[k]))
		}
	}
	return strings.Join(parts, " ")
}
