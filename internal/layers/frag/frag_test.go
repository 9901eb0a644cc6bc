package frag_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"horus/internal/core"
	"horus/internal/layers/chksum"
	"horus/internal/layers/com"
	"horus/internal/layers/frag"
	"horus/internal/layers/nak"
	"horus/internal/layers/nfrag"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/netsim"
)

func TestSmallMessageSingleFragment(t *testing.T) {
	h := layertest.New(t, frag.NewWithSize(128))
	h.InjectDown(core.NewCast(message.New([]byte("small"))))
	if got := len(h.DownOfType(core.DCast)); got != 1 {
		t.Fatalf("%d fragments for a small message, want 1", got)
	}
	h.InjectUp(&core.Event{Type: core.UCast, Msg: h.LastDown().Msg.Clone(), Source: layertest.ID("p", 2)})
	if got := h.LastUp(); got == nil || string(got.Msg.Body()) != "small" {
		t.Fatalf("single-fragment round trip failed: %v", got)
	}
}

func TestLargeMessageSplitsAndReassembles(t *testing.T) {
	h := layertest.New(t, frag.NewWithSize(100))
	body := make([]byte, 1000)
	for i := range body {
		body[i] = byte(i)
	}
	m := message.New(body)
	m.PushString("hdr")
	h.InjectDown(core.NewCast(m))

	frags := h.DownOfType(core.DCast)
	if len(frags) < 10 {
		t.Fatalf("%d fragments, want >= 10", len(frags))
	}
	for _, f := range frags {
		if f.Msg.Len() > 100+1 { // +1 for the more-flag byte
			t.Fatalf("fragment exceeds limit: %d bytes", f.Msg.Len())
		}
	}
	src := layertest.ID("p", 2)
	for _, f := range frags {
		h.InjectUp(&core.Event{Type: core.UCast, Msg: f.Msg.Clone(), Source: src})
	}
	got := h.LastUp()
	if got == nil || got.Type != core.UCast {
		t.Fatal("reassembled message not delivered")
	}
	if got.Msg.PopString() != "hdr" {
		t.Fatal("upper header lost")
	}
	if !bytes.Equal(got.Msg.Body(), body) {
		t.Fatal("body corrupted in reassembly")
	}
}

func TestInterleavedSourcesReassembleIndependently(t *testing.T) {
	h := layertest.New(t, frag.NewWithSize(64))
	mkFrags := func(tag string) []*core.Event {
		h.Reset()
		h.InjectDown(core.NewCast(message.New(bytes.Repeat([]byte(tag), 100))))
		return h.DownOfType(core.DCast)
	}
	fa := mkFrags("A")
	fb := mkFrags("B")
	h.Reset()
	pa, pb := layertest.ID("pa", 2), layertest.ID("pb", 3)
	// Interleave the two sources' fragments.
	for i := 0; i < len(fa) || i < len(fb); i++ {
		if i < len(fa) {
			h.InjectUp(&core.Event{Type: core.UCast, Msg: fa[i].Msg.Clone(), Source: pa})
		}
		if i < len(fb) {
			h.InjectUp(&core.Event{Type: core.UCast, Msg: fb[i].Msg.Clone(), Source: pb})
		}
	}
	ups := h.UpOfType(core.UCast)
	if len(ups) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(ups))
	}
	for _, ev := range ups {
		want := byte('A')
		if ev.Source == pb {
			want = 'B'
		}
		if ev.Msg.Body()[0] != want {
			t.Errorf("message from %v has body %q", ev.Source, ev.Msg.Body()[:1])
		}
	}
}

func TestLostMessageClearsReassembly(t *testing.T) {
	h := layertest.New(t, frag.NewWithSize(64))
	h.InjectDown(core.NewCast(message.New(bytes.Repeat([]byte("x"), 200))))
	frags := h.DownOfType(core.DCast)
	src := layertest.ID("p", 2)
	// First fragment arrives, then the stream reports a loss.
	h.InjectUp(&core.Event{Type: core.UCast, Msg: frags[0].Msg.Clone(), Source: src})
	h.InjectUp(&core.Event{Type: core.ULostMessage, Source: src})
	// Remaining fragments of the damaged message arrive; reassembly
	// must not produce a half message.
	for _, f := range frags[1:] {
		h.InjectUp(&core.Event{Type: core.UCast, Msg: f.Msg.Clone(), Source: src})
	}
	for _, ev := range h.UpOfType(core.UCast) {
		if len(ev.Msg.Body()) == 200 {
			t.Fatal("partially lost message delivered as complete")
		}
	}
	if got := h.UpOfType(core.ULostMessage); len(got) != 1 {
		t.Fatalf("LOST_MESSAGE not passed up: %v", got)
	}
}

func TestTooSmallFragmentSizeFailsInit(t *testing.T) {
	h := layertest.New(t, frag.New)
	ep := h.Net.NewEndpoint("x")
	if _, err := ep.Join("g", core.StackSpec{frag.NewWithSize(4)}, nil); err == nil {
		t.Fatal("tiny fragment size accepted")
	}
}

func TestSubsetSendFragmentsKeepDests(t *testing.T) {
	h := layertest.New(t, frag.NewWithSize(64))
	dests := []core.EndpointID{layertest.ID("p", 2)}
	h.InjectDown(core.NewSend(message.New(bytes.Repeat([]byte("y"), 200)), dests))
	for i, f := range h.DownOfType(core.DSend) {
		if len(f.Dests) != 1 || f.Dests[0] != dests[0] {
			t.Fatalf("fragment %d lost destinations: %v", i, f.Dests)
		}
	}
	if n := len(h.DownOfType(core.DSend)); n < 3 {
		t.Fatalf("%d send fragments, want >= 3", n)
	}
}

// roundTrip casts m through a FRAG of the given size and feeds what came
// out below back in as arrivals from a peer. It returns how many
// fragments travelled and what was delivered.
func roundTrip(t *testing.T, max int, m *message.Message) (int, *core.Event) {
	t.Helper()
	h := layertest.New(t, frag.NewWithSize(max))
	h.InjectDown(core.NewCast(m))
	frags := h.DownOfType(core.DCast)
	for _, f := range frags {
		h.InjectUp(&core.Event{Type: core.UCast, Msg: f.Msg.Clone(), Source: layertest.ID("p", 2)})
	}
	if errs := h.UpOfType(core.USystemError); len(errs) != 0 {
		t.Fatalf("SYSTEM_ERROR on a clean round trip: %s", errs[0].Reason)
	}
	return len(frags), h.LastUp()
}

// A message travels whole exactly when its wire form — the header
// length, one byte or more, in front of it — fits the fragment size; one
// byte more and it is split. Either way it arrives as it was sent, and a
// whole one costs the more-bit and that header length.
func TestWholeOrSplitBoundary(t *testing.T) {
	const max = 256
	for _, tc := range []struct {
		name      string
		hdr, wire int // the body is what the wire form has left
		fragments int
	}{
		{"Len = max-5", 8, max - 4, 1},
		{"WireLen = max-1", 8, max - 1, 1},
		{"WireLen = max, the largest whole message", 8, max, 1},
		{"WireLen = max+1, the smallest split one", 8, max + 1, 2},
		{"two-byte length, the largest whole message", 200, max, 1},
		{"two-byte length, the smallest split one", 200, max + 1, 2},
		{"no headers, largest whole body", 0, max, 1},
		{"no headers, one more body byte flips it", 0, max + 1, 2},
		{"no body, headers alone cross the line", max - 1, max + 1, 2},
		{"empty message", 0, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prefix := message.UintLen(uint64(tc.hdr))
			hdr := bytes.Repeat([]byte{0xAB}, tc.hdr)
			body := bytes.Repeat([]byte{0xCD}, tc.wire-prefix-tc.hdr)
			m := message.New(body)
			m.Push(hdr)
			if m.WireLen() != tc.wire {
				t.Fatalf("WireLen() = %d, want %d", m.WireLen(), tc.wire)
			}
			want := m.Len()
			n, got := roundTrip(t, max, m)
			if n != tc.fragments {
				t.Fatalf("WireLen()=%d travelled as %d fragments, want %d", tc.wire, n, tc.fragments)
			}
			if n == 1 && m.Len() != want+1+prefix {
				t.Errorf("a whole message grew by %d bytes, want %d", m.Len()-want, 1+prefix)
			}
			if got == nil || got.Type != core.UCast || !bytes.Equal(got.Msg.Header(), hdr) || !bytes.Equal(got.Msg.Body(), body) {
				t.Fatalf("delivered %v, want %d header and %d body bytes back", got, len(hdr), len(body))
			}
		})
	}
}

// The wire form of a whole message is what the marshal-and-wrap FRAG
// sent, so the two shapes can be told apart only by where the content
// sits: a lone last fragment carrying a marshalled message in its body
// still reassembles.
func TestWholeMessageWireFormIsALastFragment(t *testing.T) {
	h := layertest.New(t, frag.NewWithSize(128))
	inner := message.New([]byte("payload"))
	inner.PushString("upper")
	want := inner.Clone()
	wrapped := message.New(inner.Marshal())
	wrapped.PushUint8(0)
	h.InjectDown(core.NewCast(inner))
	content := func(m *message.Message) []byte { return append(append([]byte(nil), m.Header()...), m.Body()...) }
	if got := content(h.LastDown().Msg); !bytes.Equal(got, content(wrapped)) {
		t.Fatalf("whole message on the wire %x, want the wrapped form's bytes %x", got, content(wrapped))
	}
	h.InjectUp(&core.Event{Type: core.UCast, Msg: wrapped, Source: layertest.ID("p", 2)})
	if got := h.LastUp(); got == nil || !message.Equal(got.Msg, want) {
		t.Fatalf("wrapped form delivered as %v", got)
	}
}

// A whole message from a source with a reassembly in progress — which a
// FIFO channel only produces around a loss — is delivered as it is and
// leaves the accumulation alone.
func TestWholeMessageDuringPartialAccumulation(t *testing.T) {
	h := layertest.New(t, frag.NewWithSize(64))
	big := bytes.Repeat([]byte("L"), 200)
	h.InjectDown(core.NewCast(message.New(big)))
	frags := h.DownOfType(core.DCast)
	h.Reset()
	h.InjectDown(core.NewCast(message.New([]byte("small"))))
	whole := h.LastDown().Msg

	src := layertest.ID("p", 2)
	up := func(m *message.Message) {
		h.InjectUp(&core.Event{Type: core.UCast, Msg: m.Clone(), Source: src})
	}
	up(frags[0].Msg)
	up(frags[1].Msg)
	up(whole)
	if got := h.UpOfType(core.UCast); len(got) != 1 || string(got[0].Msg.Body()) != "small" {
		t.Fatalf("whole message not delivered at once: %v", got)
	}
	for _, f := range frags[2:] {
		up(f.Msg)
	}
	got := h.UpOfType(core.UCast)
	if len(got) != 2 || !bytes.Equal(got[1].Msg.Body(), big) {
		t.Fatalf("the interrupted reassembly did not complete intact: %d deliveries", len(got))
	}
	if len(h.UpOfType(core.USystemError)) != 0 {
		t.Fatal("SYSTEM_ERROR for a well-formed sequence")
	}
}

// Headers only line damage can produce are reported and dropped by
// FRAG's own checks: the harness injects on the event queue directly,
// where a panic has no recover to land in and fails the test.
func TestMalformedFragmentsAreReported(t *testing.T) {
	src := layertest.ID("p", 2)
	for _, tc := range []struct {
		name string
		hdr  []byte
		body string
	}{
		{"no more-bit at all", nil, "x"},
		{"whole header cut after the flag and one length byte", []byte{0, 0x80}, "x"},
		{"whole header cut after three length bytes", []byte{0, 0x80, 0x80, 0x80}, "x"},
		{"whole header cut after nine length bytes", append([]byte{0}, bytes.Repeat([]byte{0xFF}, 9)...), "x"},
		{"length larger than the headers present", []byte{0, 9, 1, 2, 3}, "x"},
		{"length smaller than the headers present", []byte{0, 1, 1, 2, 3}, "x"},
		{"length of 2^32-1", []byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1}, "x"},
		{"length of 2^64-1", append(append([]byte{0}, bytes.Repeat([]byte{0xFF}, 9)...), 1, 7), "x"},
		{"length of eleven bytes", append(append([]byte{0}, bytes.Repeat([]byte{0xFF}, 10)...), 1, 7), "x"},
		{"more-bit set on a whole message", []byte{1, 2, 7, 7}, "x"},
		{"unknown flag on a whole message", []byte{0x80, 2, 7, 7}, "x"},
		{"lone last fragment too short to be a message", []byte{0}, ""},
		{"lone last fragment whose header length is cut", []byte{0}, "\x80"},
		{"lone last fragment whose header length overruns it", []byte{0}, "\x09abc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := layertest.New(t, frag.NewWithSize(64))
			h.InjectUp(&core.Event{Type: core.UCast, Msg: message.FromParts(tc.hdr, []byte(tc.body)), Source: src})
			errs := h.UpOfType(core.USystemError)
			if len(errs) != 1 || errs[0].Source != src {
				t.Fatalf("got %v, want one SYSTEM_ERROR naming the source", h.Top.UpEvents)
			}
			if n := len(h.UpOfType(core.UCast)); n != 0 {
				t.Fatalf("%d deliveries from a malformed fragment", n)
			}
		})
	}
}

// TestWholeMessageAllocatesNothing pins the in-place path: a message
// that fits crosses FRAG downward and upward without an allocation.
func TestWholeMessageAllocatesNothing(t *testing.T) {
	delivered := 0
	ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("lean")
	g, err := ep.Join("g", core.StackSpec{frag.New, func() core.Layer { return &layertest.Sink{} }},
		func(ev *core.Event) {
			if ev.Type == core.UCast && string(ev.Msg.Body()) == "sixty-four bytes, more or less" {
				delivered++
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	m := message.New([]byte("sixty-four bytes, more or less"))
	m.PushUint(7)
	ev := &core.Event{Msg: m}
	there, back := m.Len()+1+message.UintLen(uint64(m.HeaderLen())), m.Len()
	crossing := func() {
		ev.Type = core.DCast
		g.Stack().Down(ev)
		if m.Len() != there {
			t.Fatalf("below FRAG the message is %d bytes, want %d", m.Len(), there)
		}
		ev.Type, ev.Source = core.UCast, layertest.ID("p", 2)
		g.Stack().Up(ev)
		if m.Len() != back {
			t.Fatalf("above FRAG the message is %d bytes, want %d", m.Len(), back)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { ep.Do(crossing) }); allocs != 0 {
		t.Errorf("whole-message Down + Up: %v allocations, want 0", allocs)
	}
	if delivered != 101 {
		t.Errorf("%d of 101 crossings delivered", delivered)
	}
}

// A reassembly has a bound, frag.MaxMessage bytes and the number of
// fragments that many bytes cut as small as Init allows come to: past
// either, what was held is dropped, one SYSTEM_ERROR goes up, the rest
// of that message is discarded through its last fragment, and the
// message after it reassembles as if nothing had happened.
func TestOversizedReassemblyIsDropped(t *testing.T) {
	src := layertest.ID("p", 2)
	for _, tc := range []struct {
		name     string
		body     []byte // of each fragment with the more-bit set
		overflow int    // how many of them it takes
	}{
		{"bytes", make([]byte, 64<<10), frag.MaxMessage/(64<<10) + 1},
		{"fragments", []byte{7}, frag.MaxMessage/16 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := layertest.New(t, frag.NewWithSize(64))
			up := func(more uint8, body []byte) {
				h.InjectUp(&core.Event{Type: core.UCast, Msg: message.FromParts([]byte{more}, body), Source: src})
			}
			for i := 1; i < tc.overflow; i++ {
				up(1, tc.body)
			}
			if got := h.Top.UpEvents; len(got) != 0 {
				t.Fatalf("%d upcalls before the bound was reached: %v", len(got), got[0])
			}
			up(1, tc.body) // the one too many
			up(1, tc.body) // discarded
			up(0, []byte("the end of the oversized message"))
			if errs := h.UpOfType(core.USystemError); len(errs) != 1 || errs[0].Source != src {
				t.Fatalf("got %d SYSTEM_ERRORs, want one naming the source", len(errs))
			}
			if n := len(h.UpOfType(core.UCast)); n != 0 {
				t.Fatalf("%d deliveries out of an oversized reassembly", n)
			}

			next := message.New(bytes.Repeat([]byte("n"), 100)).Marshal()
			up(1, next[:64])
			up(0, next[64:])
			got := h.UpOfType(core.UCast)
			if len(got) != 1 || len(got[0].Msg.Body()) != 100 {
				t.Fatalf("the message after the oversized one: %v", got)
			}
			if n := len(h.UpOfType(core.USystemError)); n != 1 {
				t.Fatalf("%d SYSTEM_ERRORs in all, want 1", n)
			}
		})
	}
}

// The sender's side of the same bound: a message no peer would
// reassemble is refused where it is cast, with a SYSTEM_ERROR, and the
// largest one that fits goes out and comes back.
func TestDownRefusesWhatNoPeerReassembles(t *testing.T) {
	h := layertest.New(t, frag.New)
	largest := frag.MaxMessage - message.UintLen(0) // a body whose wire form is MaxMessage bytes
	h.InjectDown(core.NewCast(message.New(make([]byte, largest+1))))
	if n := len(h.Bot.DownEvents); n != 0 {
		t.Fatalf("%d fragments of an oversized message sent", n)
	}
	if errs := h.UpOfType(core.USystemError); len(errs) != 1 {
		t.Fatalf("got %d SYSTEM_ERRORs, want 1", len(errs))
	}
	h.Reset()
	h.InjectDown(core.NewCast(message.New(make([]byte, largest))))
	for _, f := range h.DownOfType(core.DCast) {
		h.InjectUp(&core.Event{Type: core.UCast, Msg: f.Msg, Source: layertest.ID("p", 2)})
	}
	if got := h.UpOfType(core.UCast); len(got) != 1 || len(got[0].Msg.Body()) != largest {
		t.Fatalf("the largest message did not make the round trip: %d deliveries, %d errors",
			len(got), len(h.UpOfType(core.USystemError)))
	}
}

// TestReassemblyAllocs pins what a reassembly costs: a message cut in
// 17 arrives as 17 fragments and is put together with one allocation,
// the buffer it is copied into, of exactly its wire size, which the last
// fragment's own Message then views. The fragments are held, not
// copied, on the way.
func TestReassemblyAllocs(t *testing.T) {
	const runs = 50
	h := layertest.New(t, frag.New)
	h.InjectDown(core.NewCast(message.New(make([]byte, 16<<10))))
	sent := h.DownOfType(core.DCast)
	if len(sent) != 17 {
		t.Fatalf("16 KiB travelled as %d fragments, want 17", len(sent))
	}
	wire := 0
	for _, f := range sent {
		wire += len(f.Msg.Body())
	}
	// Measured on a stack with nothing around FRAG that allocates.
	ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("lean")
	delivered := 0
	g, err := ep.Join("g", core.StackSpec{frag.New, func() core.Layer { return &layertest.Sink{} }},
		func(ev *core.Event) {
			if ev.Type == core.UCast && len(ev.Msg.Body()) == 16<<10 {
				delivered++
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals are consumed, so every run gets its own, made beforehand.
	arrivals := make([]*message.Message, 0, (runs+1)*len(sent))
	for range cap(arrivals) / len(sent) {
		for _, f := range sent {
			arrivals = append(arrivals, f.Msg.Clone())
		}
	}
	ev := new(core.Event)
	reassemble := func() {
		for _, m := range arrivals[:len(sent)] {
			*ev = core.Event{Type: core.UCast, Msg: m, Source: layertest.ID("p", 2)}
			g.Stack().Up(ev)
		}
		arrivals = arrivals[len(sent):]
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { ep.Do(reassemble) })
	runtime.ReadMemStats(&after)
	if allocs != 1 {
		t.Errorf("%v allocations per reassembly, want 1", allocs)
	}
	if delivered != runs+1 {
		t.Fatalf("%d of %d reassemblies delivered", delivered, runs+1)
	}
	// The first run grows the list of held fragments; past that, the
	// bytes are the buffer, in its size class.
	per := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	if per < float64(wire) || per > float64(wire)*1.15 {
		t.Errorf("%.0f bytes allocated per reassembly of a %d-byte wire image", per, wire)
	}
}

// FuzzFragUp feeds FRAG arbitrary headers and bodies from two sources on
// both channels: whatever arrives, it does not panic (nothing recovers
// on this path), and everything it passes up is a message whose headers
// and body lie within what arrived.
func FuzzFragUp(f *testing.F) {
	f.Add([]byte{0, 2, 7, 7}, []byte("body"), []byte{0}, []byte("\x01hb"))
	f.Add([]byte{1}, []byte("\x02he"), []byte{0}, []byte("ad and body"))
	f.Add([]byte{}, []byte{}, []byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, []byte{})
	f.Add([]byte{1, 0}, []byte("x"), []byte{0, 0x80}, []byte("y"))
	// Two fragments from one source that together pass the bound.
	f.Add([]byte{1}, make([]byte, frag.MaxMessage/2+1), []byte{1}, make([]byte, frag.MaxMessage/2))
	f.Fuzz(func(t *testing.T, hdr1, body1, hdr2, body2 []byte) {
		h := layertest.New(t, frag.NewWithSize(32))
		srcs := []core.EndpointID{layertest.ID("p", 2), layertest.ID("q", 3)}
		total := 0
		for i, part := range [][2][]byte{{hdr1, body1}, {hdr2, body2}, {hdr1, body2}, {hdr2, body1}} {
			total += len(part[0]) + len(part[1])
			for _, typ := range []core.EventType{core.UCast, core.USend} {
				h.InjectUp(&core.Event{Type: typ, Msg: message.FromParts(part[0], part[1]), Source: srcs[i%2]})
			}
		}
		for _, ev := range h.Top.UpEvents {
			switch ev.Type {
			case core.UCast, core.USend:
				if ev.Msg.Len() > 2*total {
					t.Fatalf("delivered %d bytes out of %d that arrived", ev.Msg.Len(), 2*total)
				}
			case core.USystemError:
			default:
				t.Fatalf("unexpected upcall %v", ev)
			}
		}
	})
}

// cutter is a layer that cuts a message's wire image into fragments:
// the size it cuts at, whether a message that fits one fragment travels
// uncut, and a check of the header it puts on fragment i of n, which it
// pops.
type cutter struct {
	name    string
	factory core.Factory
	size    int
	whole   bool
	header  func(m *message.Message, i, n int) bool
}

func cutters(fragSize int) []cutter {
	return []cutter{
		{"FRAG", frag.NewWithSize(fragSize), fragSize, true, func(m *message.Message, i, n int) bool {
			want := uint8(1)
			if i == n-1 {
				want = 0
			}
			return m.HeaderLen() == 1 && m.PopUint8() == want
		}},
		{"NFRAG", nfrag.New, nfrag.FragmentSize, false, func(m *message.Message, i, n int) bool {
			m.PopUint() // the message id
			return m.PopUint() == uint64(i) && m.PopUint() == uint64(n) && m.HeaderLen() == 0
		}},
	}
}

// referenceCut is what FRAG and NFRAG sent while they marshalled a
// message to split it: the wire image Marshal renders, cut at size.
func referenceCut(m *message.Message, size int) [][]byte {
	wire := m.Marshal()
	var pieces [][]byte
	for off := 0; off < len(wire); off += size {
		pieces = append(pieces, wire[off:min(off+size, len(wire))])
	}
	return pieces
}

// checkCut casts hdr over body through c and checks that the fragments
// carry Marshal's image cut at c.size, byte for byte, and that fed back
// up they reassemble to the message that was cast. The sender's buffer
// is overwritten once the cast has gone down, as an application may; a
// frozen body is one a layer above has already taken for its own.
func checkCut(t *testing.T, c cutter, hdr, body []byte, frozen bool) {
	t.Helper()
	want := message.FromParts(hdr, body)
	ref := referenceCut(want, c.size)
	if c.whole && len(ref) == 1 {
		return
	}
	buf := append([]byte(nil), body...)
	m := message.New(buf)
	if frozen {
		m = message.NewShared(buf)
	}
	m.Push(hdr)
	h := layertest.New(t, c.factory)
	h.InjectDown(core.NewCast(m))
	if !frozen {
		for i := range buf {
			buf[i] ^= 0xFF
		}
	}
	frags := h.DownOfType(core.DCast)
	if len(frags) != len(ref) {
		t.Fatalf("%s: %d fragments, want %d", c.name, len(frags), len(ref))
	}
	src := layertest.ID("p", 2)
	for i, f := range frags {
		got := f.Msg.Clone()
		if !c.header(got, i, len(frags)) {
			t.Fatalf("%s: fragment %d of %d has header %x", c.name, i, len(frags), f.Msg.Header())
		}
		if !bytes.Equal(got.Body(), ref[i]) {
			t.Fatalf("%s: fragment %d is %x, want %x", c.name, i, got.Body(), ref[i])
		}
		h.InjectUp(&core.Event{Type: core.UCast, Msg: f.Msg.Clone(), Source: src})
	}
	ups := h.UpOfType(core.UCast)
	if len(ups) != 1 || !message.Equal(ups[0].Msg, want) {
		t.Fatalf("%s: reassembled %v, want %v", c.name, ups, want)
	}
}

// TestCutMatchesMarshal holds FRAG and NFRAG, which cut a message where
// it lies, to the fragments they sent while they marshalled it first.
func TestCutMatchesMarshal(t *testing.T) {
	const fragSize = 64
	for _, c := range cutters(fragSize) {
		s := c.size
		// headers whose header length and bytes together fill one
		// fragment exactly
		exact := s - 1
		for message.UintLen(uint64(exact))+exact > s {
			exact--
		}
		for _, tc := range []struct {
			name      string
			hdr, body int
		}{
			{"headers shorter than a fragment", s / 4, 3 * s},
			{"headers and length exactly one fragment", exact, 2*s + 7},
			{"headers longer than a fragment", 2*s + 5, 3 * s},
			{"headers longer than a fragment, empty body", 2*s + 5, 0},
			{"no headers", 0, 5 * s},
			{"empty body", s / 2, 0},
			{"image exactly four fragments", 10, 4*s - 1 - 10},
			{"image one byte past four fragments", 10, 4*s - 10},
			{"body ending where the headers' last fragment ends", s + 5, s - 5 - message.UintLen(uint64(s+5))},
			{"body one byte past the headers' last fragment", s + 5, s - 4 - message.UintLen(uint64(s+5))},
		} {
			for _, frozen := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/frozen=%v", c.name, tc.name, frozen), func(t *testing.T) {
					hdr, body := make([]byte, tc.hdr), make([]byte, tc.body)
					for i := range hdr {
						hdr[i] = byte(i*7 + 1)
					}
					for i := range body {
						body[i] = byte(i*13 + 5)
					}
					checkCut(t, c, hdr, body, frozen)
				})
			}
		}
	}
}

// FuzzFragCut is TestCutMatchesMarshal over arbitrary headers, bodies
// and FRAG fragment sizes from 16 up, and checkSplit over the same
// message, size and arbitrary header pushes.
func FuzzFragCut(f *testing.F) {
	f.Add([]byte("hdr"), bytes.Repeat([]byte("b"), 100), uint16(0), false, []byte{0, 30, 31, 40})
	f.Add(bytes.Repeat([]byte("h"), 40), []byte{}, uint16(3), true, []byte{31})
	f.Add([]byte{}, bytes.Repeat([]byte("x"), 2049), uint16(1008), false, []byte{9, 63})
	f.Fuzz(func(t *testing.T, hdr, body []byte, size uint16, frozen bool, pushes []byte) {
		for _, c := range cutters(16 + int(size)%2048) {
			checkCut(t, c, hdr, body, frozen)
		}
		checkSplit(t, hdr, body, 16+int(size)%2048, pushes)
	})
}

// checkSplit splits hdr over body at size (core.NewFragments) and holds
// each fragment to its piece of the image Marshal renders: fragment i's
// body is bytes [i·size, (i+1)·size) of it, whatever the sender's buffer
// holds afterwards. Pushed onto, fragment i — pushes[i] bytes, taken
// round-robin modulo twice the room — renders to its own Marshal image,
// in place when the pushed bytes and their length fit the room and in
// fresh storage when they do not, and no render writes the image of
// another fragment.
func checkSplit(t *testing.T, hdr, body []byte, size int, pushes []byte) {
	t.Helper()
	buf := append([]byte(nil), body...)
	m := message.New(buf)
	m.Push(hdr)
	wire := m.Marshal()
	frags := core.NewFragments(core.NewCast(m), size)
	for i := range buf {
		buf[i] ^= 0xFF
	}
	if want := (len(wire) + size - 1) / size; len(frags) != want {
		t.Fatalf("%d bytes at %d: %d fragments, want %d", len(wire), size, len(frags), want)
	}
	images, wants := make([][]byte, len(frags)), make([][]byte, len(frags))
	for i := range frags {
		msg := frags.At(i).Msg
		piece := wire[i*size : min((i+1)*size, len(wire))]
		if !bytes.Equal(msg.Body(), piece) {
			t.Fatalf("fragment %d of %d is %x, want %x", i, len(frags), msg.Body(), piece)
		}
		n := 0
		if len(pushes) > 0 {
			n = int(pushes[i%len(pushes)]) % (2 * castRoom)
		}
		msg.Push(bytes.Repeat([]byte{byte(i)}, n))
		slot := msg.Body()
		wants[i] = msg.Marshal()
		images[i] = msg.Wire()
		if !bytes.Equal(images[i], wants[i]) {
			t.Fatalf("fragment %d with %d bytes pushed: Wire = %x, Marshal = %x", i, n, images[i], wants[i])
		}
		inPlace := &images[i][len(images[i])-len(piece)] == &slot[0]
		if fits := n+message.UintLen(uint64(n)) <= castRoom; inPlace != fits {
			t.Errorf("fragment %d with %d bytes pushed: rendered in place %v, want %v", i, n, inPlace, fits)
		}
	}
	for i := range images {
		if !bytes.Equal(images[i], wants[i]) {
			t.Fatalf("fragment %d's image was written by another's render:\n now  %x\n sent %x", i, images[i], wants[i])
		}
	}
}

// castRoom is the header room core.NewFragments gives each fragment,
// the room an application's cast gets.
const castRoom = 32

// TestSplitFrozenBodyAllocs pins a split through a transport: 16 KiB
// cut in 17 by FRAG:COM on a netsim endpoint costs two allocations, the
// buffer the image is cut into with header room in front of each piece
// and the block of the fragments' records (core.NewFragments), and the
// 17 wire images are rendered where they lie, so the transport is
// handed them without an allocation more. So does NFRAG's cut under
// CHKSUM:COM, whose three varints, checksum and COM's source fit the
// room as well. The bytes are those two: the image, castRoom bytes a
// fragment and a record a fragment, within the allocator's size
// classes. A body a layer above has frozen, as MBRSHIP's retained copy
// leaves it, costs the same as one that is still the application's.
func TestSplitFrozenBodyAllocs(t *testing.T) {
	const (
		runs   = 50
		record = unsafe.Sizeof(core.Event{}) + unsafe.Sizeof(message.Message{})
	)
	for _, tc := range []struct {
		name string
		spec core.StackSpec
	}{
		{"FRAG:COM", core.StackSpec{frag.New, com.New}},
		{"NFRAG:CHKSUM:COM", core.StackSpec{nfrag.New, chksum.New, com.New}},
	} {
		for _, frozen := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/frozen=%v", tc.name, frozen), func(t *testing.T) {
				ep := netsim.New(netsim.Config{Seed: 1}).NewEndpoint("lean")
				g, err := ep.Join("g", tc.spec, nil)
				if err != nil {
					t.Fatal(err)
				}
				m := message.New(make([]byte, 16<<10))
				m.PushUint(7)
				if frozen {
					m.Clone() // freezes the body, as a retaining layer does
				}
				image := m.WireLen()
				// Sent to a member that is not attached, so netsim counts
				// each fragment as blocked and keeps nothing.
				ev := core.NewSend(m, []core.EndpointID{{Site: "absent", Birth: 1}})
				// A split spends the event and leaves the message as it
				// was, so every run hands the event the message again.
				split := func() {
					ev.Msg = m
					g.Stack().Down(ev)
				}
				ep.Do(split)
				sent := func() int { return g.Focus("COM").(*com.Com).Stats().Sent }
				before := sent()
				var start, end runtime.MemStats
				runtime.ReadMemStats(&start)
				allocs := testing.AllocsPerRun(runs, func() { ep.Do(split) })
				runtime.ReadMemStats(&end)
				if allocs != 2 {
					t.Errorf("%v allocations per split, want 2", allocs)
				}
				if got := sent() - before; got != 17*(runs+1) {
					t.Fatalf("%d fragments reached the transport over %d splits", got, runs+1)
				}
				want := float64(image + 17*castRoom + 17*int(record))
				if per := float64(end.TotalAlloc-start.TotalAlloc) / (runs + 1); per < want || per > want*9/8 {
					t.Errorf("%.0f bytes allocated per split, want %.0f and at most an eighth more", per, want)
				}
			})
		}
	}
}

// TestSenderReusesItsBuffer runs FRAG:NAK:COM over a link that loses one
// packet in a hundred, with no layer above FRAG to freeze a cast's body:
// each member casts 16 KiB from one buffer it overwrites as soon as Cast
// returns. Every member still delivers every cast as it was cast,
// fragments NAK sent again included, since FRAG cut them from a copy of
// its own.
func TestSenderReusesItsBuffer(t *testing.T) {
	retransmits := reuseRun(t, 3)
	if retransmits == 0 {
		t.Fatal("NAK sent nothing again: the run does not test the retained fragments")
	}
	t.Logf("%d fragments sent again", retransmits)
}

// TestSenderReusesItsBufferSeeds runs TestSenderReusesItsBuffer's
// scenario over 300 netsim seeds. In a stack without a membership layer
// each cast loops back to its sender, and at some seeds the loopback
// copy of a sender's last cast is the one lost: no later cast shows the
// gap, and no peer's status claims the sender's own stream, so the
// sender finds the lost tail only because NAK asks its own stream for
// it at the status round. Under -short only the seeds where that
// happens run.
func TestSenderReusesItsBufferSeeds(t *testing.T) {
	seeds := []int64{36, 104, 170, 230}
	if !testing.Short() {
		seeds = seeds[:0]
		for seed := int64(1); seed <= 300; seed++ {
			seeds = append(seeds, seed)
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { reuseRun(t, seed) })
	}
}

// reuseRun runs TestSenderReusesItsBuffer's scenario on netsim seed seed,
// checks every delivery and returns how many fragments NAK sent again.
func reuseRun(t *testing.T, seed int64) int {
	t.Helper()
	const members, casts = 3, 60
	net := netsim.New(netsim.Config{Seed: seed, DefaultLink: netsim.Link{Delay: time.Millisecond, LossRate: 0.01}})
	pattern := func(src core.EndpointID, k int) []byte {
		b := make([]byte, 16<<10)
		for i := range b {
			b[i] = byte(i*31 + k*7 + int(src.Site[0]))
		}
		return b
	}
	groups := make([]*core.Group, members)
	heard := make([]map[core.EndpointID]int, members) // casts delivered, by source
	wrong := 0
	for i := range groups {
		heard[i] = make(map[core.EndpointID]int)
		var err error
		groups[i], err = net.NewEndpoint(string(rune('a'+i))).Join("grp", core.StackSpec{frag.New, nak.New, com.New},
			func(ev *core.Event) {
				if ev.Type != core.UCast {
					return
				}
				if !bytes.Equal(ev.Msg.Body(), pattern(ev.Source, heard[i][ev.Source])) {
					wrong++
				}
				heard[i][ev.Source]++
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	core.InstallView(groups...)
	buf := make([]byte, 16<<10)
	for n := range casts {
		g := groups[n%members]
		net.At(time.Duration(n)*10*time.Millisecond, func() {
			copy(buf, pattern(g.Endpoint().ID(), n/members))
			g.Cast(message.New(buf))
			for i := range buf {
				buf[i] = 0xEE
			}
		})
	}
	net.RunFor(casts*10*time.Millisecond + 2*time.Second)
	for i, h := range heard {
		for _, g := range groups {
			if n := h[g.Endpoint().ID()]; n != casts/members {
				t.Errorf("member %d delivered %d casts from %v, want %d", i, n, g.Endpoint().ID(), casts/members)
			}
		}
	}
	if wrong != 0 {
		t.Errorf("%d deliveries differ from what was cast", wrong)
	}
	retransmits := 0
	for _, g := range groups {
		retransmits += g.Focus("NAK").(*nak.Nak).Stats().Retransmits
	}
	return retransmits
}
