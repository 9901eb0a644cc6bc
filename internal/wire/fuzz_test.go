package wire_test

import (
	"slices"
	"testing"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/wire"
)

// FuzzWirePop feeds arbitrary header bytes to the vector decoders peer
// bytes meet: a token's queue (PopKnownIDList), a count vector
// (PopCounts) and a view (PopView). The one panic allowed is
// message.ShortRead, which the endpoint counts as a malformed packet;
// whatever pops must push again and pop back equal.
func FuzzWirePop(f *testing.F) {
	known := []core.EndpointID{{Site: "a", Birth: 1}, {Site: "bb", Birth: 300}}
	seed := func(push func(m *message.Message)) {
		m := message.New(nil)
		push(m)
		f.Add(append([]byte(nil), m.Header()...))
	}
	seed(func(m *message.Message) {
		wire.PushCounts(m, []uint64{7, 1 << 40})
		wire.PushIDList(m, known)
	})
	seed(func(m *message.Message) { wire.PushCounts(m, []uint64{0, 128, 1<<64 - 1}) })
	seed(func(m *message.Message) {
		wire.PushView(m, core.NewView(core.ViewID{Seq: 9, Coord: known[0]}, "grp", known))
	})
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, hdr []byte) {
		var ids []core.EndpointID
		var counts []uint64
		if popOrShort(t, hdr, func(m *message.Message) { ids = wire.PopKnownIDList(m, known) }) {
			m := message.New(nil)
			wire.PushIDList(m, ids)
			if again := wire.PopKnownIDList(m, known); !slices.Equal(ids, again) || m.HeaderLen() != 0 {
				t.Fatalf("PopKnownIDList: %v pushed again popped as %v", ids, again)
			}
		}

		if popOrShort(t, hdr, func(m *message.Message) { counts = wire.PopCounts(m) }) {
			m := message.New(nil)
			wire.PushCounts(m, counts)
			if again := wire.PopCounts(m); !slices.Equal(counts, again) || m.HeaderLen() != 0 {
				t.Fatalf("PopCounts: %v pushed again popped as %v", counts, again)
			}
		}

		var v *core.View
		if popOrShort(t, hdr, func(m *message.Message) { v = wire.PopView(m) }) {
			m := message.New(nil)
			wire.PushView(m, v)
			again := wire.PopView(m)
			if again.ID != v.ID || again.Group != v.Group || !slices.Equal(again.Members, v.Members) || m.HeaderLen() != 0 {
				t.Fatalf("PopView: %v pushed again popped as %v", v, again)
			}
		}
	})
}

// popOrShort runs pop on a message whose headers are hdr and reports
// whether it returned; a message.ShortRead panic is a refusal, and any
// other panic fails the test.
func popOrShort(t *testing.T, hdr []byte, pop func(m *message.Message)) (ok bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if _, short := r.(message.ShortRead); !short {
				t.Fatalf("panic other than a short read: %v", r)
			}
		}
	}()
	pop(message.FromParts(hdr, nil))
	return true
}
