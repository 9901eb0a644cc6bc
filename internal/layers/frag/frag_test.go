package frag_test

import (
	"bytes"
	"runtime"
	"testing"

	"horus/internal/core"
	"horus/internal/layers/frag"
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

// A message travels whole exactly when its wire form — four bytes of
// header length in front of it — fits the fragment size; one byte more
// and it is split. Either way it arrives as it was sent, and a whole one
// costs five bytes of header.
func TestWholeOrSplitBoundary(t *testing.T) {
	const max = 64
	for _, tc := range []struct {
		name      string
		hdr, body int // Len() is their sum
		fragments int
	}{
		{"Len = max-5", 8, max - 5 - 8, 1},
		{"Len = max-4, the largest whole message", 8, max - 4 - 8, 1},
		{"Len = max-3, the smallest split one", 8, max - 3 - 8, 2},
		{"no headers, largest whole body", 0, max - 4, 1},
		{"no headers, one more body byte flips it", 0, max - 3, 2},
		{"no body, headers alone cross the line", max - 3, 0, 2},
		{"empty message", 0, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hdr := bytes.Repeat([]byte{0xAB}, tc.hdr)
			body := bytes.Repeat([]byte{0xCD}, tc.body)
			m := message.New(body)
			m.Push(hdr)
			want := m.Len()
			n, got := roundTrip(t, max, m)
			if n != tc.fragments {
				t.Fatalf("Len()=%d travelled as %d fragments, want %d", want, n, tc.fragments)
			}
			if n == 1 && m.Len() != want+5 {
				t.Errorf("a whole message grew by %d bytes, want 5", m.Len()-want)
			}
			if got == nil || got.Type != core.UCast || !bytes.Equal(got.Msg.Header(), hdr) || !bytes.Equal(got.Msg.Body(), body) {
				t.Fatalf("delivered %v, want %d header and %d body bytes back", got, tc.hdr, tc.body)
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
	if got := h.LastDown().Msg.Marshal()[4:]; !bytes.Equal(got, wrapped.Marshal()[4:]) {
		t.Fatalf("whole message on the wire %x, want the wrapped form's bytes %x", got, wrapped.Marshal()[4:])
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
		{"whole header cut after the flag and one length byte", []byte{0, 0}, "x"},
		{"whole header cut after three length bytes", []byte{0, 0, 0, 0}, "x"},
		{"length larger than the headers present", []byte{0, 0, 0, 0, 9, 1, 2, 3}, "x"},
		{"length smaller than the headers present", []byte{0, 0, 0, 0, 1, 1, 2, 3}, "x"},
		{"length of 2^32-1", []byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 1}, "x"},
		{"more-bit set on a whole message", []byte{1, 0, 0, 0, 2, 7, 7}, "x"},
		{"unknown flag on a whole message", []byte{0x80, 0, 0, 0, 2, 7, 7}, "x"},
		{"lone last fragment too short to be a message", []byte{0}, "abc"},
		{"lone last fragment whose header length overruns it", []byte{0}, "\x00\x00\x00\x09abc"},
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
	m.PushUint64(7)
	ev := &core.Event{Msg: m}
	there, back := m.Len()+5, m.Len()
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
	h.InjectDown(core.NewCast(message.New(make([]byte, frag.MaxMessage-3))))
	if n := len(h.Bot.DownEvents); n != 0 {
		t.Fatalf("%d fragments of an oversized message sent", n)
	}
	if errs := h.UpOfType(core.USystemError); len(errs) != 1 {
		t.Fatalf("got %d SYSTEM_ERRORs, want 1", len(errs))
	}
	h.Reset()
	h.InjectDown(core.NewCast(message.New(make([]byte, frag.MaxMessage-4))))
	for _, f := range h.DownOfType(core.DCast) {
		h.InjectUp(&core.Event{Type: core.UCast, Msg: f.Msg, Source: layertest.ID("p", 2)})
	}
	if got := h.UpOfType(core.UCast); len(got) != 1 || len(got[0].Msg.Body()) != frag.MaxMessage-4 {
		t.Fatalf("the largest message did not make the round trip: %d deliveries, %d errors",
			len(got), len(h.UpOfType(core.USystemError)))
	}
}

// TestReassemblyAllocs pins what a reassembly costs: a message cut in
// 17 arrives as 17 fragments and is put together with two allocations —
// the buffer it is copied into, of exactly its wire size, and the
// Message that views it. The fragments are held, not copied, on the way.
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
	if allocs != 2 {
		t.Errorf("%v allocations per reassembly, want 2", allocs)
	}
	if delivered != runs+1 {
		t.Fatalf("%d of %d reassemblies delivered", delivered, runs+1)
	}
	// The first run grows the list of held fragments; past that, the
	// bytes are the buffer (in its size class) and the 64-byte Message.
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
	f.Add([]byte{0, 0, 0, 0, 2, 7, 7}, []byte("body"), []byte{0}, []byte("\x00\x00\x00\x01hb"))
	f.Add([]byte{1}, []byte("\x00\x00\x00\x02he"), []byte{0}, []byte("ad and body"))
	f.Add([]byte{}, []byte{}, []byte{0, 0xFF, 0xFF, 0xFF, 0xFF}, []byte{})
	f.Add([]byte{1, 0, 0, 0, 0}, []byte("x"), []byte{0, 0, 0, 0}, []byte("y"))
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
