package nak

import (
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/message"
)

// fuzzSent is how many numbers the fuzzed source has sent; every
// arrival, place holder and claim names one of them.
const fuzzSent = 48

// receiveModel is what one receive stream must do, kept as a map: a
// number is held by whichever came first, its arrival or a place holder
// covering it, and the stream delivers up to the first number held by
// neither.
type receiveModel struct {
	held      map[uint64]string // "data" or "lost"
	delivered uint64
	claimed   uint64
	want      []string    // the bodies the stream must have delivered, in order
	seen      int         // how many of want the stream has been seen to deliver
	lostUps   int         // place holders that must have raised a LOST_MESSAGE
	lost      [][2]uint64 // the ranges the LOST_MESSAGEs raised so far name
}

func (m *receiveModel) drain() {
	for m.held[m.delivered+1] != "" {
		m.delivered++
		if m.held[m.delivered] == "data" {
			m.want = append(m.want, strconv.FormatUint(m.delivered, 10))
		}
	}
}

func (m *receiveModel) arrive(seq uint64) {
	if seq > m.delivered && m.held[seq] == "" {
		m.held[seq] = "data"
	}
	m.drain()
}

// placeHold follows receivePlaceholder: a range wholly delivered, or
// reversed, is ignored; otherwise one LOST_MESSAGE goes up and every
// number in it not yet held is place-held.
func (m *receiveModel) placeHold(lo, hi uint64) {
	if hi <= m.delivered || hi < lo {
		return
	}
	m.lostUps++
	for seq := max(lo, m.delivered+1); seq <= hi; seq++ {
		if m.held[seq] == "" {
			m.held[seq] = "lost"
		}
	}
	m.drain()
}

// missing is the stream's "a number below a claim or below a parked one
// is missing"; top is the highest number known to have been sent.
func (m *receiveModel) missing() (bool, uint64) {
	top := m.claimed
	for seq := range m.held {
		top = max(top, seq)
	}
	return top > m.delivered, top
}

// FuzzNakReceive drives one receive stream, a peer's casts or its
// unicasts to this endpoint, with arbitrary originals, retransmissions,
// duplicates, place holders, statuses and the passing of time, and
// checks it against receiveModel after every step. The stream must
// deliver every number once and in order, raise a LOST_MESSAGE for
// exactly the place-held ones, never ask for a number it has delivered
// or one nothing shows was sent, and keep its timer armed whenever a
// number below a claim or below a parked number is missing: that timer
// is the only path that asks again.
func FuzzNakReceive(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 0, 5, 40, 0, 1}) // 3 then 1 after 10 ms, then 2
	f.Add([]byte{1, 4, 5, 5, 8, 1, 2, 1, 3, 1, 4})
	f.Add([]byte{0, 0, 1, 3, 4, 2, 0, 0, 9, 2, 2, 5, 200, 1, 3})
	f.Add([]byte{0, 3, 6, 2, 0, 0, 0, 0, 7, 4, 20, 5, 3, 5, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const resend = 10 * time.Millisecond
		if len(ops) == 0 || len(ops) > 400 {
			return
		}
		h := layertest.New(t, NewWith(WithStatusPeriod(0), WithNakResend(resend), WithSuspectAfter(0)))
		peer := layertest.ID("peer", 2)
		h.InstallView(h.Self(), peer)
		l := h.G.Focus("NAK").(*Nak)
		stream, kind, resent, typ := uint8(streamCast), uint8(kindData), uint8(kindResent), core.UCast
		if ops[0]%2 == 1 {
			stream, kind, resent, typ = streamUni, kindUniData, kindResentUni, core.USend
		}
		inject := func(m *message.Message) {
			h.InjectUp(&core.Event{Type: typ, Msg: m, Source: peer})
		}
		arrival := func(seq uint64, k uint8) {
			m := message.New([]byte(strconv.FormatUint(seq, 10)))
			m.PushUint(seq)
			m.PushUint8(k)
			inject(m)
		}
		model := receiveModel{held: map[uint64]string{}}
		var last uint64 // the last number that arrived, for a duplicate
		for ops = ops[1:]; len(ops) >= 2; ops = ops[2:] {
			op, arg := ops[0]%6, ops[1]
			seq := uint64(arg)%fuzzSent + 1
			h.Reset()
			switch op {
			case 0, 1: // an original, or its retransmission
				arrival(seq, [2]uint8{kind, resent}[op])
				model.arrive(seq)
				last = seq
			case 2: // the last arrival again
				if last > 0 {
					arrival(last, resent)
				}
			case 3: // a place holder for up to 8 numbers from seq
				hi := seq + uint64(arg/fuzzSent)%8
				m := message.New(nil)
				m.PushUint(hi)
				m.PushUint(seq)
				m.PushUint8(stream)
				m.PushUint8(kindPlaceholder)
				inject(m)
				model.placeHold(seq, hi)
			case 4: // a status claiming seq-1 sent
				var castSent, uniSent uint64
				if stream == streamCast {
					castSent = seq - 1
				} else {
					uniSent = seq - 1
				}
				m := message.New(nil)
				m.PushUint(0)
				m.PushUint(uniSent)
				m.PushUint(castSent)
				m.PushUint(0)
				m.PushUint8(kindStatus)
				h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: peer})
				model.claimed = max(model.claimed, seq-1)
			case 5: // time passes, up to 64 ms
				h.Run(time.Duration(arg) * 250 * time.Microsecond)
			}
			checkReceive(t, h, l, peer, stream, &model, op)
		}
	})
}

// checkReceive compares the stream after one step (op) with the model.
func checkReceive(t *testing.T, h *layertest.Harness, l *Nak, peer core.EndpointID, stream uint8, model *receiveModel, op byte) {
	t.Helper()
	var got []string
	for _, ev := range h.Top.UpEvents {
		switch ev.Type {
		case core.UCast, core.USend:
			got = append(got, string(ev.Msg.Body()))
		case core.ULostMessage:
			var lo, hi uint64
			fmt.Sscanf(ev.Reason, "seqs %d-%d", &lo, &hi)
			model.lost = append(model.lost, [2]uint64{lo, hi})
		}
	}
	if want := model.want[model.seen:]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("op %d: delivered %v, want %v", op, got, want)
	}
	model.seen = len(model.want)
	if len(model.lost) != model.lostUps {
		t.Fatalf("op %d: %d LOST_MESSAGEs in all, want %d", op, len(model.lost), model.lostUps)
	}
	for seq, v := range model.held {
		if v == "lost" && seq <= model.delivered && !slices.ContainsFunc(model.lost, func(r [2]uint64) bool { return r[0] <= seq && seq <= r[1] }) {
			t.Fatalf("op %d: %d was place-held and no LOST_MESSAGE names it: %v", op, seq, model.lost)
		}
	}
	p := l.peers[peer]
	in := p.castIn
	if stream == streamUni {
		in = p.uniIn
	}
	if in == nil {
		return
	}
	if in.delivered != model.delivered {
		t.Fatalf("op %d: stream delivered to %d, model to %d", op, in.delivered, model.delivered)
	}
	missing, top := model.missing()
	for _, ev := range h.DownOfType(core.DSend) {
		m := ev.Msg.Clone()
		if m.PopUint8() != kindNak || m.PopUint8() != stream {
			continue
		}
		lo, hi := m.PopUint(), m.PopUint()
		if lo <= model.delivered || hi < lo || hi > top {
			t.Fatalf("op %d: asked for [%d, %d] with %d delivered and %d the highest number known sent", op, lo, hi, model.delivered, top)
		}
	}
	if missing && !in.timer.Armed() {
		t.Fatalf("op %d: %d delivered, %d known sent, and the stream's timer is not armed", op, model.delivered, top)
	}
}
