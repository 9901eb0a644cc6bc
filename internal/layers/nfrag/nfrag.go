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
// Every message is cut as FRAG cuts one that does not fit, a message
// that fits in one fragment too: its wire image is written once into
// one buffer with header room in front of each piece, so the fragments
// cost two allocations however many there are, and NFRAG's three
// varints and the headers beneath render each where it lies
// (core.NewFragments).
//
// A reassembly holds at most frag.MaxMessage bytes, FRAG's bound: Down
// refuses a larger message, and Up refuses a fragment announcing more
// than maxFragments and abandons an assembly that would pass it.
package nfrag

import (
	"fmt"
	"slices"
	"time"

	"horus/internal/core"
	"horus/internal/layers/frag"
)

// FragmentSize is the fragment payload size, and maxFragments the
// most fragments a message of frag.MaxMessage bytes comes to.
const (
	FragmentSize = 1024
	maxFragments = (frag.MaxMessage + FragmentSize - 1) / FragmentSize
)

// reassemblyTimeout abandons incomplete reassemblies.
const reassemblyTimeout = time.Second

// New returns an NFRAG layer.
func New() core.Layer { return &Nfrag{} }

type asmKey struct {
	src core.EndpointID
	id  uint64
}

// assembly is one message's reassembly. It holds the fragment bodies as
// they arrived — read-only views of wire buffers, alive while held —
// by index, and copies them once, in order, when the last one is in. A
// finished or abandoned assembly, emptied, is the layer's spare, so the
// next message reuses its list.
type assembly struct {
	parts   []part // one per fragment of the message
	held    int    // parts in
	size    int    // sum of the held lengths
	started time.Duration
}

// part is one fragment's place in an assembly.
type part struct {
	body []byte
	in   bool
}

// Nfrag is one NFRAG layer instance.
type Nfrag struct {
	core.Base
	nextID uint64
	asm    map[asmKey]*assembly
	spare  *assembly         // emptied, for the next message (see assembly)
	sweep  core.Timer[Nfrag] // the reassembly sweep (sweepTick)
	stats  Stats
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
	f.asm = make(map[asmKey]*assembly)
	f.sweep.Bind(c, f, (*Nfrag).sweepTick)
	f.sweep.Reset(reassemblyTimeout)
	return nil
}

// Down implements core.Layer.
func (f *Nfrag) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend:
		if ev.Msg.WireLen() > frag.MaxMessage {
			f.Ctx.Up(&core.Event{Type: core.USystemError, Source: f.Ctx.Self(),
				Detail: &core.Detail{Reason: fmt.Sprintf("nfrag: message of %d bytes exceeds the %d a reassembly holds", ev.Msg.Len(), frag.MaxMessage)}})
			return
		}
		frags := core.NewFragments(ev, FragmentSize)
		f.nextID++
		if len(frags) > 1 {
			f.stats.Fragmented++
		}
		for i := range frags {
			d := frags.At(i)
			d.Msg.PushUint(uint64(len(frags)))
			d.Msg.PushUint(uint64(i))
			d.Msg.PushUint(f.nextID)
			f.stats.Fragments++
			f.Ctx.Down(d)
		}
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("NFRAG: max=%d frags=%d reasm=%d abandoned=%d",
			FragmentSize, f.stats.Fragments, f.stats.Reassembled, f.stats.Abandoned))
		f.Ctx.Down(ev)
	default:
		f.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (f *Nfrag) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend:
		id := ev.Msg.PopUint()
		idx64 := ev.Msg.PopUint()
		count64 := ev.Msg.PopUint()
		if count64 == 0 || idx64 >= count64 || count64 > maxFragments {
			return
		}
		key, count := asmKey{src: ev.Source, id: id}, int(count64)
		a := f.asm[key]
		if a == nil {
			a = f.spare
			if a == nil {
				a = new(assembly)
			}
			f.spare = nil
			a.parts = slices.Grow(a.parts, count)[:count]
			a.started = f.Ctx.Now()
			f.asm[key] = a
		}
		if len(a.parts) != count || a.parts[idx64].in {
			return
		}
		body := ev.Msg.Body()
		if a.size+len(body) > frag.MaxMessage {
			f.drop(key, a)
			f.stats.Abandoned++
			return
		}
		a.parts[idx64] = part{body: body, in: true}
		a.held++
		a.size += len(body)
		if a.held < count {
			return
		}
		// The one copy, into a buffer the last fragment's message then
		// views.
		whole := make([]byte, 0, a.size)
		for _, p := range a.parts {
			whole = append(whole, p.body...)
		}
		f.drop(key, a)
		if ev.Msg.Attach(whole) != nil {
			return
		}
		if count > 1 {
			f.stats.Reassembled++
		}
		f.Ctx.Up(ev)
	default:
		f.Ctx.Up(ev)
	}
}

// drop ends the reassembly at key, lets go of what it held and keeps
// it as the spare.
func (f *Nfrag) drop(key asmKey, a *assembly) {
	delete(f.asm, key)
	clear(a.parts)
	a.parts, a.held, a.size = a.parts[:0], 0, 0
	f.spare = a
}

// sweepTick abandons reassemblies older than the timeout.
func (f *Nfrag) sweepTick() {
	f.sweep.Reset(reassemblyTimeout)
	now := f.Ctx.Now()
	for key, a := range f.asm {
		if now-a.started >= reassemblyTimeout {
			f.drop(key, a)
			f.stats.Abandoned++
		}
	}
}
