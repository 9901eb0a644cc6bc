// Package nfrag implements the NFRAG layer: fragmentation over an
// *unreliable* transport (Table 3: requires only P1/P10/P11, provides
// P12).
//
// Unlike FRAG, which sits above FIFO channels and needs only the
// paper's one-bit more-flag, NFRAG cannot assume ordering or
// reliability. Each fragment carries {message id, index, count};
// receivers reassemble out-of-order fragments per (source, id) and
// abandon incomplete messages after a timeout. Delivery is
// all-or-nothing best effort: a lost fragment loses the whole message,
// which an upper retransmission layer (or the application) must
// tolerate.
//
// A reassembly holds at most frag.MaxMessage bytes, FRAG's bound: Down
// refuses a larger message, and Up refuses a fragment announcing more
// than maxFragments and abandons an assembly that would pass it.
package nfrag

import (
	"fmt"
	"time"

	"horus/internal/core"
	"horus/internal/layers/frag"
	"horus/internal/message"
)

// DefaultMaxFragment is the default fragment payload size.
const DefaultMaxFragment = 1024

// minFragment is the smallest fragment payload Init accepts, and
// maxFragments the most fragments a message of frag.MaxMessage bytes
// cut that small comes to.
const (
	minFragment  = 16
	maxFragments = frag.MaxMessage / minFragment
)

// defaultReassemblyTimeout abandons incomplete reassemblies.
const defaultReassemblyTimeout = time.Second

// Option configures the layer.
type Option func(*Nfrag)

// WithMaxFragment sets the fragment payload size.
func WithMaxFragment(n int) Option { return func(f *Nfrag) { f.max = n } }

// WithTimeout sets the reassembly abandonment timeout.
func WithTimeout(d time.Duration) Option { return func(f *Nfrag) { f.timeout = d } }

// New returns an NFRAG layer with defaults.
func New() core.Layer { return newNfrag() }

// NewWith returns a factory with options applied.
func NewWith(opts ...Option) core.Factory {
	return func() core.Layer {
		f := newNfrag()
		for _, o := range opts {
			o(f)
		}
		return f
	}
}

func newNfrag() *Nfrag {
	return &Nfrag{max: DefaultMaxFragment, timeout: defaultReassemblyTimeout}
}

type asmKey struct {
	src core.EndpointID
	id  uint64
}

// assembly is one message's reassembly. It holds the fragment bodies as
// they arrived — read-only views of wire buffers, alive while held —
// and copies them once, in order, when the last one is in.
type assembly struct {
	parts   map[uint32][]byte
	size    int // sum of the held lengths
	count   uint32
	started time.Duration
}

// Nfrag is one NFRAG layer instance.
type Nfrag struct {
	core.Base
	max     int
	timeout time.Duration
	nextID  uint64
	asm     map[asmKey]*assembly
	sweep   func()
	dead    bool
	stats   Stats
}

// Stats counts NFRAG activity.
type Stats struct {
	Fragmented  int
	Fragments   int
	Reassembled int
	Abandoned   int // incomplete reassemblies timed out or past frag.MaxMessage
}

// Name implements core.Layer.
func (f *Nfrag) Name() string { return "NFRAG" }

// Stats returns a snapshot of the layer's counters.
func (f *Nfrag) Stats() Stats { return f.stats }

// Init implements core.Layer.
func (f *Nfrag) Init(c *core.Context) error {
	if err := f.Base.Init(c); err != nil {
		return err
	}
	if f.max < minFragment {
		return fmt.Errorf("nfrag: maximum fragment size %d too small", f.max)
	}
	f.asm = make(map[asmKey]*assembly)
	if f.timeout > 0 {
		f.sweep = c.SetTimer(f.timeout, f.sweepTick)
	}
	return nil
}

// Down implements core.Layer.
func (f *Nfrag) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend:
		if 4+ev.Msg.Len() > frag.MaxMessage {
			f.Ctx.Up(&core.Event{Type: core.USystemError, Source: f.Ctx.Self(),
				Detail: &core.Detail{Reason: fmt.Sprintf("nfrag: message of %d bytes exceeds the %d a reassembly holds", ev.Msg.Len(), frag.MaxMessage)}})
			return
		}
		wire := ev.Msg.Marshal()
		f.nextID++
		count := (len(wire) + f.max - 1) / f.max
		if count == 0 {
			count = 1
		}
		if count > 1 {
			f.stats.Fragmented++
		}
		for i := 0; i < count; i++ {
			end := (i + 1) * f.max
			if end > len(wire) {
				end = len(wire)
			}
			m := message.NewShared(wire[i*f.max : end]) // wire is not written again
			m.PushUint32(uint32(count))
			m.PushUint32(uint32(i))
			m.PushUint64(f.nextID)
			f.stats.Fragments++
			f.Ctx.Down(&core.Event{Type: ev.Type, Msg: m, Dests: ev.Dests})
		}
	case core.DDestroy:
		f.dead = true
		if f.sweep != nil {
			f.sweep()
		}
		f.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("NFRAG: max=%d frags=%d reasm=%d abandoned=%d",
			f.max, f.stats.Fragments, f.stats.Reassembled, f.stats.Abandoned))
		f.Ctx.Down(ev)
	default:
		f.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (f *Nfrag) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend:
		id := ev.Msg.PopUint64()
		idx := ev.Msg.PopUint32()
		count := ev.Msg.PopUint32()
		if count == 0 || idx >= count || count > maxFragments {
			return
		}
		key := asmKey{src: ev.Source, id: id}
		a := f.asm[key]
		if a == nil {
			a = &assembly{parts: make(map[uint32][]byte), count: count, started: f.Ctx.Now()}
			f.asm[key] = a
		}
		if a.count != count {
			return
		}
		if _, dup := a.parts[idx]; dup {
			return
		}
		body := ev.Msg.Body()
		if a.size+len(body) > frag.MaxMessage {
			delete(f.asm, key)
			f.stats.Abandoned++
			return
		}
		a.parts[idx] = body
		a.size += len(body)
		if uint32(len(a.parts)) < a.count {
			return
		}
		delete(f.asm, key)
		whole := make([]byte, 0, a.size)
		for i := uint32(0); i < a.count; i++ {
			whole = append(whole, a.parts[i]...)
		}
		inner, err := message.Unmarshal(whole)
		if err != nil {
			return
		}
		if a.count > 1 {
			f.stats.Reassembled++
		}
		ev.Msg = inner
		f.Ctx.Up(ev)
	default:
		f.Ctx.Up(ev)
	}
}

// sweepTick abandons reassemblies older than the timeout.
func (f *Nfrag) sweepTick() {
	if f.dead {
		return
	}
	f.sweep = f.Ctx.SetTimer(f.timeout, f.sweepTick)
	now := f.Ctx.Now()
	for key, a := range f.asm {
		if now-a.started >= f.timeout {
			delete(f.asm, key)
			f.stats.Abandoned++
		}
	}
}
