package wire_test

import (
	"slices"
	"testing"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/wire"
)

// FuzzWirePop feeds arbitrary header bytes to the decoders peer bytes
// meet — a token's queue (PopIDList), a count vector (PopCounts), a
// view tag (PopViewID) and a view (PopView) — in both encodings of an
// identifier: the receiver resolves a birth alone against a known list
// and a directory that each name only some identifiers. The panics
// allowed are message.ShortRead and core.Unnamed, which the endpoint
// counts as a malformed packet; a birth alone that neither the list nor
// the directory names must be refused that way, never given a site.
// Whatever pops must push again, through the directory and through a
// transport that names nothing, and pop back equal, and the list's
// IDListLen must be what PushIDList pushes.
func FuzzWirePop(f *testing.F) {
	known := []core.EndpointID{{Site: "a", Birth: 1}, {Site: "bb", Birth: 300}}
	dir := names{{Site: "a", Birth: 1}, {Site: "ccc", Birth: 2}, {Site: "dd", Birth: 70}}
	seed := func(push func(m *message.Message)) {
		m := message.New(nil)
		push(m)
		f.Add(append([]byte(nil), m.Header()...))
	}
	seed(func(m *message.Message) {
		wire.PushCounts(m, []uint64{7, 1 << 40})
		wire.PushIDList(m, known, nil)
	})
	seed(func(m *message.Message) { wire.PushCounts(m, []uint64{0, 128, 1<<64 - 1}) })
	seed(func(m *message.Message) {
		wire.PushView(m, core.NewView(core.ViewID{Seq: 9, Coord: known[0]}, "grp", known), nil)
	})
	seed(func(m *message.Message) {
		wire.PushIDList(m, []core.EndpointID{dir[1], known[1], dir[2]}, dir)
	})
	seed(func(m *message.Message) {
		wire.PushView(m, core.NewView(core.ViewID{Seq: 3, Coord: dir[2]}, "grp", dir), dir)
	})
	seed(func(m *message.Message) {
		wire.PushIDList(m, []core.EndpointID{{Site: "zz", Birth: 5}}, names{{Site: "zz", Birth: 5}})
	})
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, hdr []byte) {
		var ids []core.EndpointID
		if popOrRefused(t, hdr, func(m *message.Message) { ids = wire.PopIDList(m, known, dir) }) {
			for _, d := range []core.Directory{dir, nil} {
				m := message.New(nil)
				wire.PushIDList(m, ids, d)
				if m.HeaderLen() != wire.IDListLen(ids, d) {
					t.Fatalf("IDListLen(%v) = %d, PushIDList pushed %d bytes", ids, wire.IDListLen(ids, d), m.HeaderLen())
				}
				if again := wire.PopIDList(m, known, d); !slices.Equal(ids, again) || m.HeaderLen() != 0 {
					t.Fatalf("PopIDList: %v pushed again popped as %v", ids, again)
				}
			}
		}

		var counts []uint64
		if popOrRefused(t, hdr, func(m *message.Message) { counts = wire.PopCounts(m) }) {
			m := message.New(nil)
			wire.PushCounts(m, counts)
			if again := wire.PopCounts(m); !slices.Equal(counts, again) || m.HeaderLen() != 0 {
				t.Fatalf("PopCounts: %v pushed again popped as %v", counts, again)
			}
		}

		var id core.ViewID
		if popOrRefused(t, hdr, func(m *message.Message) { id = wire.PopViewID(m, known, dir) }) {
			for _, d := range []core.Directory{dir, nil} {
				m := message.New(nil)
				wire.PushViewID(m, id, d)
				if again := wire.PopViewID(m, nil, d); again != id || m.HeaderLen() != 0 {
					t.Fatalf("PopViewID: %v pushed again popped as %v", id, again)
				}
			}
		}

		var v *core.View
		if popOrRefused(t, hdr, func(m *message.Message) { v = wire.PopView(m, known, dir) }) {
			for _, d := range []core.Directory{dir, nil} {
				m := message.New(nil)
				wire.PushView(m, v, d)
				again := wire.PopView(m, nil, d)
				if again.ID != v.ID || again.Group != v.Group || !slices.Equal(again.Members, v.Members) || m.HeaderLen() != 0 {
					t.Fatalf("PopView: %v pushed again popped as %v", v, again)
				}
			}
		}
	})
}

// popOrRefused runs pop on a message whose headers are hdr and reports
// whether it returned. A message.ShortRead or core.Unnamed panic is a
// refusal, and an Unnamed one must name a birth that the list and the
// directory the fuzz target resolves against do not; any other panic
// fails the test.
func popOrRefused(t *testing.T, hdr []byte, pop func(m *message.Message)) (ok bool) {
	t.Helper()
	defer func() {
		switch r := recover().(type) {
		case nil, message.ShortRead:
		case core.Unnamed:
			if r.Birth == 1 || r.Birth == 2 || r.Birth == 70 || r.Birth == 300 {
				t.Fatalf("birth %d refused, but the list or the directory names it", r.Birth)
			}
		default:
			t.Fatalf("panic other than a refusal: %v", r)
		}
	}()
	pop(message.FromParts(hdr, nil))
	return true
}
