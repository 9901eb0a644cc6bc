package nak

import (
	"fmt"
	"math/rand"
	"testing"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/wire"
)

// modelStream is the retransmission buffer as a plain set of sequence
// numbers with the three trims written as sweeps over it. The ring in
// outStream must be indistinguishable from it.
type modelStream struct {
	next   uint64
	buf    map[uint64]string
	retain uint64
}

func (m *modelStream) assign(body string) {
	m.next++
	m.buf[m.next] = body
	if uint64(len(m.buf)) > m.retain+m.retain/4 {
		for seq := range m.buf {
			if seq+m.retain <= m.next {
				delete(m.buf, seq)
			}
		}
	}
}

func (m *modelStream) trim(upTo uint64) {
	for seq := range m.buf {
		if seq <= upTo {
			delete(m.buf, seq)
		}
	}
}

// answer is what a NAK for [lo, hi] gets: retransmissions of what is
// buffered, runs of anything else collapsed into place holders.
func (m *modelStream) answer(lo, hi uint64) []string {
	var out []string
	lo, hi = max(lo, 1), min(hi, m.next)
	phLo := uint64(0)
	flush := func(phHi uint64) {
		if phLo != 0 {
			out = append(out, fmt.Sprintf("placeholder %d-%d", phLo, phHi))
			phLo = 0
		}
	}
	for seq := lo; seq <= hi; seq++ {
		if body, ok := m.buf[seq]; ok {
			flush(seq - 1)
			out = append(out, fmt.Sprintf("data %d %s", seq, body))
		} else if phLo == 0 {
			phLo = seq
		}
	}
	flush(hi)
	return out
}

// TestOutStreamMatchesMapModel drives a NAK layer's cast stream and one
// unicast stream through random sends, acknowledgements (some beyond
// anything sent, as line damage produces), retention overflow and NAKs,
// and demands at every step what a set of sequence numbers would give:
// the same buffered copies and, for every NAK, the same retransmissions
// and the same place-holder ranges.
func TestOutStreamMatchesMapModel(t *testing.T) {
	const retain = 8
	h := layertest.New(t, NewWith(WithStatusPeriod(0), WithNakResend(0), WithRetain(retain)))
	peer := layertest.ID("peer", 2)
	h.InstallView(h.Self(), peer)
	l := h.G.Focus("NAK").(*Nak)

	model := map[uint8]*modelStream{
		streamCast: {buf: map[uint64]string{}, retain: retain},
		streamUni:  {buf: map[uint64]string{}, retain: retain},
	}
	stream := func(s uint8) *outStream {
		if s == streamCast {
			return &l.castOut
		}
		return l.uniOutFor(peer)
	}
	var castAcked uint64 // acknowledgements only ever move forward

	// seqNear draws a sequence number around what a stream has sent:
	// mostly among the last few, where the buffer's lower edge is,
	// sometimes anywhere in its history or just beyond, rarely far off.
	rng := rand.New(rand.NewSource(16))
	seqNear := func(next uint64) uint64 {
		switch rng.Intn(10) {
		case 0:
			return next + uint64(rng.Intn(4))
		case 1:
			return rng.Uint64()
		case 2, 3:
			return uint64(rng.Int63n(int64(next) + 1))
		default:
			return next - min(next, uint64(rng.Intn(3*retain)))
		}
	}

	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			body := fmt.Sprintf("c%d", step)
			h.InjectDown(core.NewCast(message.New([]byte(body))))
			model[streamCast].assign(body)
		case op < 7:
			body := fmt.Sprintf("u%d", step)
			h.InjectDown(core.NewSend(message.New([]byte(body)), []core.EndpointID{peer}))
			model[streamUni].assign(body)
		case op < 8:
			// A status round: peer's delivered count of our casts and of
			// our unicasts to it. Its own send counts stay 0, so it asks
			// for nothing back.
			acked, uniDelivered := seqNear(model[streamCast].next), seqNear(model[streamUni].next)
			m := message.New(nil)
			m.PushUint64(uniDelivered)
			m.PushUint64(0)
			m.PushUint64(0)
			wire.PushCounts(m, []uint64{acked})
			wire.PushIDList(m, []core.EndpointID{h.Self()})
			m.PushUint8(kindStatus)
			h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: peer})
			castAcked = max(castAcked, acked)
			model[streamCast].trim(min(castAcked, model[streamCast].next))
			model[streamUni].trim(uniDelivered)
		default:
			s := uint8(streamCast + rng.Intn(2))
			lo, hi := seqNear(model[s].next), seqNear(model[s].next)
			m := message.New(nil)
			m.PushUint64(hi)
			m.PushUint64(lo)
			m.PushUint8(s)
			m.PushUint8(kindNak)
			h.Reset()
			h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: peer})
			var got []string
			for _, ev := range h.Bot.DownEvents {
				switch kind := ev.Msg.PopUint8(); kind {
				case kindPlaceholder:
					ev.Msg.PopUint8()
					got = append(got, fmt.Sprintf("placeholder %d-%d", ev.Msg.PopUint64(), ev.Msg.PopUint64()))
				default:
					got = append(got, fmt.Sprintf("data %d %s", ev.Msg.PopUint64(), ev.Msg.Body()))
				}
			}
			if want := model[s].answer(lo, hi); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: NAK [%d, %d] on stream %d answered\n%v\nwant\n%v", step, lo, hi, s, got, want)
			}
		}
		for s, m := range model {
			out := stream(s)
			if out.next != m.next || out.held != uint64(len(m.buf)) {
				t.Fatalf("step %d: stream %d at next=%d held=%d, model next=%d holds %d",
					step, s, out.next, out.held, m.next, len(m.buf))
			}
			for seq := uint64(0); seq <= m.next+2; seq++ {
				got, want := out.get(seq), m.buf[seq]
				if _, ok := m.buf[seq]; ok != (got != nil) || ok && string(got.Body()) != want {
					t.Fatalf("step %d: stream %d get(%d) = %v, model has %q (buffered %v)", step, s, seq, got, want, ok)
				}
			}
		}
	}
	for s, m := range model {
		if m.next < 1000 {
			t.Errorf("stream %d sent only %d messages", s, m.next)
		}
	}
}
