// Package probe measures a protocol stack from outside: every factory
// of a StackSpec is wrapped in a core.Layer that forwards the four
// interface calls and records one span per Down/Up invocation. The
// wrappers hide core.Skipper and core.CastCompiler, so a probed stack
// always takes the per-layer reference path and no layer is ever
// skipped — which is what lets a span's position say who caused it:
// a Down span at layer j that is not the continuation of a Down span
// at layer j-1 was originated by layer j-1 (or, at the top, by the
// application), without looking inside any layer.
//
// One Recorder serves one endpoint. All of an endpoint's protocol
// execution is serialized by its executor, so a Recorder needs no
// locking; spans live in a buffer allocated before the run and are
// analysed (or written out) after it.
package probe

import (
	"time"

	"horus/internal/core"
)

// Dir is the direction of the call a span records.
type Dir int8

const (
	Down Dir = iota // toward the network
	Up              // toward the application
)

// Span is one Down or Up invocation of one layer.
type Span struct {
	Start  int64  // wall ns since the recorder's epoch
	Dur    int32  // wall ns from call to return
	Self   int32  // Dur minus the time its child spans cover
	Parent int32  // index of the span that was open when this one began; -1 for a root
	Fabric int64  // fabric clock at entry, ns (virtual on netsim)
	Tag    uint64 // application cast tag when the body is visible, else 0
	MsgLen int32  // header+body length of ev.Msg at entry; -1 without a message
	Pkts   int32  // packets (one per destination) handed to the transport inside this span
	Wire   int32  // wire bytes handed to the transport inside this span, counted once per transmission
	Bytes  int64  // wire bytes counted once per destination
	Type   core.EventType
	Layer  int8 // index in the stack, 0 = top
	Dir    Dir
	Src    uint8 // small integer standing for ev.Source at entry; 0 = none
}

type openSpan struct {
	idx   int32
	child int64 // summed Dur of the children closed so far
}

// Recorder holds the spans of one endpoint.
type Recorder struct {
	Names   []string // layer names, top first (filled by Init)
	Spans   []Span   // len grows up to the preallocated capacity
	Dropped int      // spans lost because the buffer was full

	open  []openSpan
	srcIx map[core.EndpointID]uint8
	epoch time.Time
	clock func() time.Duration
	tag   func(body []byte) uint64
}

// NewRecorder preallocates room for capacity spans. clock is the fabric
// clock; tag extracts the application's cast tag from a message body
// and returns 0 when the body is not an application payload (below a
// layer that re-frames the message, the body is a wire image).
func NewRecorder(capacity int, epoch time.Time, clock func() time.Duration, tag func(body []byte) uint64) *Recorder {
	return &Recorder{
		Spans: make([]Span, 0, capacity),
		open:  make([]openSpan, 0, 32),
		srcIx: make(map[core.EndpointID]uint8),
		epoch: epoch,
		clock: clock,
		tag:   tag,
	}
}

// Wrap returns spec with every factory wrapped in a recording layer.
// Call it once per endpoint, with that endpoint's recorder.
func Wrap(spec core.StackSpec, rec *Recorder) core.StackSpec {
	rec.Names = make([]string, len(spec))
	out := make(core.StackSpec, len(spec))
	for i, f := range spec {
		out[i] = func() core.Layer { return &layer{inner: f(), idx: int8(i), rec: rec} }
	}
	return out
}

// Transmitted attributes one transmission to the innermost open span.
// Call it from the endpoint's wire tap.
func (r *Recorder) Transmitted(dests, wireLen int) {
	if n := len(r.open); n > 0 {
		s := &r.Spans[r.open[n-1].idx]
		s.Pkts += int32(dests)
		s.Wire += int32(wireLen)
		s.Bytes += int64(dests) * int64(wireLen)
	}
}

func (r *Recorder) begin(layer int8, dir Dir, ev *core.Event) int32 {
	if len(r.Spans) == cap(r.Spans) {
		r.Dropped++
		return -1
	}
	s := Span{Parent: -1, Fabric: int64(r.clock()), MsgLen: -1, Type: ev.Type, Layer: layer, Dir: dir}
	if n := len(r.open); n > 0 {
		s.Parent = r.open[n-1].idx
	}
	if ev.Msg != nil {
		s.MsgLen = int32(ev.Msg.Len())
		s.Tag = r.tag(ev.Msg.Body())
	}
	if dir == Up && !ev.Source.IsZero() {
		ix, ok := r.srcIx[ev.Source]
		if !ok && len(r.srcIx) < 255 {
			ix = uint8(len(r.srcIx) + 1)
			r.srcIx[ev.Source] = ix
		}
		s.Src = ix
	}
	idx := int32(len(r.Spans))
	r.Spans = append(r.Spans, s)
	r.open = append(r.open, openSpan{idx: idx})
	// Stamp last, so the bookkeeping above lands in the parent's self
	// time rather than in this span.
	r.Spans[idx].Start = int64(time.Since(r.epoch))
	return idx
}

func (r *Recorder) end(idx int32) {
	now := int64(time.Since(r.epoch))
	if idx < 0 {
		return
	}
	n := len(r.open) - 1
	o := r.open[n]
	r.open = r.open[:n]
	s := &r.Spans[idx]
	dur := now - s.Start
	s.Dur = int32(dur)
	s.Self = int32(dur - o.child)
	if n > 0 {
		r.open[n-1].child += dur
	}
}

// layer is the recording wrapper around one protocol layer.
type layer struct {
	inner core.Layer
	idx   int8
	rec   *Recorder
}

func (l *layer) Name() string { return l.inner.Name() }

func (l *layer) Init(c *core.Context) error {
	l.rec.Names[l.idx] = l.inner.Name()
	return l.inner.Init(c)
}

func (l *layer) Down(ev *core.Event) {
	i := l.rec.begin(l.idx, Down, ev)
	l.inner.Down(ev)
	l.rec.end(i)
}

func (l *layer) Up(ev *core.Event) {
	i := l.rec.begin(l.idx, Up, ev)
	l.inner.Up(ev)
	l.rec.end(i)
}

// Unwrap returns the protocol layer behind a recording wrapper, or l
// itself when it is not wrapped.
func Unwrap(l core.Layer) core.Layer {
	if w, ok := l.(*layer); ok {
		return w.inner
	}
	return l
}
