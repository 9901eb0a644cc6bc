package mbrship

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/vslog"
	"horus/internal/wire"
)

// modelLog is the unstable log as it was kept before it held values: a
// slice of pointers per origin, each to a copy made when the message
// was logged, trimmed and forwarded by the same rules.
type modelLog struct {
	entries   map[core.EndpointID][]modelEntry
	delivered map[core.EndpointID]uint64
	acks      map[core.EndpointID]map[core.EndpointID]uint64 // member -> origin -> delivered
}

type modelEntry struct {
	seq uint64
	msg *message.Message
}

func newModelLog() *modelLog {
	return &modelLog{
		entries:   map[core.EndpointID][]modelEntry{},
		delivered: map[core.EndpointID]uint64{},
		acks:      map[core.EndpointID]map[core.EndpointID]uint64{},
	}
}

func (l *modelLog) append(origin core.EndpointID, seq uint64, hdr, body []byte) {
	l.entries[origin] = append(l.entries[origin], modelEntry{seq, message.FromParts(hdr, body)})
	l.delivered[origin] = seq
}

func (l *modelLog) ack(member, origin core.EndpointID, count uint64) {
	if l.acks[member] == nil {
		l.acks[member] = map[core.EndpointID]uint64{}
	}
	l.acks[member][origin] = max(l.acks[member][origin], count)
}

func (l *modelLog) trim(members []core.EndpointID) {
	for origin, entries := range l.entries {
		stable := ^uint64(0)
		for _, member := range members {
			if l.acks[member] == nil {
				stable = 0
				break
			}
			stable = min(stable, l.acks[member][origin])
		}
		var keep []modelEntry
		for _, e := range entries {
			if e.seq > stable {
				keep = append(keep, e)
			}
		}
		l.entries[origin] = keep
	}
}

// forwards lists what a flush must forward: origins oldest first, each
// origin's entries in log order.
func (l *modelLog) forwards(members []core.EndpointID) []string {
	var out []string
	for _, origin := range members { // a view's members are sorted by age
		for _, e := range l.entries[origin] {
			out = append(out, fmt.Sprintf("%v/%d %x", origin, e.seq, e.msg.Marshal()))
		}
	}
	return out
}

// loggedCast is one entry of a member's unstable log: its number and
// the wire image of what is held.
type loggedCast struct {
	seq   uint64
	image []byte
}

// logged lists what l's log holds for origin, in log order.
func logged(l *Mbrship, origin core.EndpointID) []loggedCast {
	var out []loggedCast
	l.log.Each(func(o core.EndpointID, seq uint64, msg *message.Message) {
		if o == origin {
			out = append(out, loggedCast{seq, msg.Marshal()})
		}
	})
	return out
}

// TestLogMatchesPointerModel drives one MBRSHIP member through random
// deliveries from its peers, casts of its own, gossip from every side,
// flush rounds and view changes, and demands after every step that the
// log of values holds what the log of pointers to copies would: the same
// entries with the same content, the same forwards in a flush. Whatever
// is logged is afterwards popped and pushed onto by the test as the
// layers above and below do, and the application reuses its buffers, so
// an entry that views storage someone still writes fails here.
func TestLogMatchesPointerModel(t *testing.T) {
	const period = 20 * time.Millisecond
	h := layertest.New(t, NewWith(WithGossipPeriod(period), WithFlushTimeout(0)))
	h.Run(time.Millisecond) // the initial singleton view
	l := h.G.Focus("MBRSHIP").(*Mbrship)
	self := h.Self()
	a, c := layertest.ID("a", 0), layertest.ID("c", 1<<40)
	rng := rand.New(rand.NewSource(19))

	model := newModelLog()
	var deferred [][2][]byte // own casts parked while a flush runs: header, body
	castSeq, flushing, round := uint64(0), false, uint64(0)

	// installView has a announce the successor of the current view with
	// the same three members; the log starts over and parked casts go out.
	installView := func() {
		v := core.NewView(core.ViewID{Seq: l.view.ID.Seq + 1, Coord: a}, "test", []core.EndpointID{a, self, c})
		m := message.New(nil)
		wire.PushEndpointID(m, core.EndpointID{}, nil)
		wire.PushEndpointID(m, core.EndpointID{}, nil)
		m.PushUint(0)
		wire.PushViewID(m, l.view.ID, nil)
		wire.PushView(m, v, nil)
		m.PushUint8(kView)
		h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: a})
		if l.view.ID != v.ID {
			t.Fatalf("view %v not installed; still in %v", v.ID, l.view.ID)
		}
		model = newModelLog()
		castSeq, flushing = 0, false
		for _, d := range deferred {
			castSeq++
			model.append(self, castSeq, d[0], d[1])
		}
		deferred = nil
	}
	installView()
	members := l.view.Members

	randomBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(100); {
		case op < 40: // a peer's cast arrives, sometimes twice
			origin := []core.EndpointID{a, c}[rng.Intn(2)]
			seq := model.delivered[origin] + 1
			if rng.Intn(8) == 0 && seq > 1 {
				seq--
			}
			hdr, body := randomBytes(rng.Intn(12)), randomBytes(rng.Intn(40))
			m := message.New(body)
			m.Push(hdr)
			m.PushUint(seq)
			wire.PushViewID(m, l.view.ID, nil)
			m.PushUint8(kData)
			arrived, err := message.Unmarshal(m.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			h.Reset()
			h.InjectUp(&core.Event{Type: core.UCast, Msg: arrived, Source: origin})
			if seq > model.delivered[origin] {
				model.append(origin, seq, hdr, body)
				// The layers above pop their headers and push replies' worth.
				up := h.LastUp().Msg
				up.Pop(len(hdr))
				up.PushUint(rng.Uint64())
			}
		case op < 65: // a cast of our own
			hdr, body := randomBytes(rng.Intn(12)), randomBytes(rng.Intn(40))
			m := message.New(body)
			m.Push(hdr)
			want := [2][]byte{hdr, append([]byte(nil), body...)}
			h.Reset()
			h.InjectDown(core.NewCast(m))
			if flushing {
				deferred = append(deferred, want)
			} else {
				castSeq++
				model.append(self, castSeq, want[0], want[1])
				// The layers below frame onto the message that was cast,
				// the application takes its buffer back.
				down := h.DownOfType(core.DCast)[0].Msg
				down.PushUint(rng.Uint64())
				down.PushString("lower headers")
				rng.Read(body)
			}
		case op < 78: // our gossip round
			h.Run(period)
			if !flushing {
				for _, o := range members {
					model.ack(self, o, model.delivered[o])
				}
				model.trim(members)
			}
		case op < 93: // a peer's gossip
			peer := []core.EndpointID{a, c}[rng.Intn(2)]
			counts := make([]uint64, len(members))
			for i, o := range members {
				counts[i] = uint64(rng.Int63n(int64(model.delivered[o]) + 1))
				model.ack(peer, o, counts[i])
			}
			m := message.New(nil)
			vslog.PushVector(m, l.view.ID, counts, nil)
			m.PushUint8(kGossip)
			h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: peer})
			model.trim(members)
		case op < 98: // a flush round: everything unstable is forwarded to a
			round++
			m := message.New(nil)
			wire.PushIDList(m, nil, nil)
			m.PushUint(round)
			wire.PushViewID(m, l.view.ID, nil)
			m.PushUint8(kFlush)
			h.Reset()
			h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: a})
			flushing = true
			var got []string
			for _, ev := range h.DownOfType(core.DSend) {
				if ev.Msg.PopUint8() != kFwd {
					continue
				}
				if r := ev.Msg.PopUint(); r != round {
					t.Fatalf("step %d: forward stamped round %d, want %d", step, r, round)
				}
				wire.PopViewID(ev.Msg, nil, h.Net)
				batch, ok := vslog.PopBatch(ev.Msg, nil, h.Net)
				if !ok {
					t.Fatalf("step %d: the forwards' batch does not read", step)
				}
				batch.Each(func(origin core.EndpointID, seq uint64, image []byte) {
					got = append(got, fmt.Sprintf("%v/%d %x", origin, seq, image))
				})
			}
			if want := model.forwards(members); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: flush forwarded\n%v\nwant\n%v", step, got, want)
			}
		default:
			installView()
		}

		for _, origin := range members {
			got, want := logged(l, origin), model.entries[origin]
			if len(got) != len(want) {
				t.Fatalf("step %d: %d entries logged for %v, model has %d", step, len(got), origin, len(want))
			}
			for i := range want {
				if got[i].seq != want[i].seq || !bytes.Equal(got[i].image, want[i].msg.Marshal()) {
					t.Fatalf("step %d: entry %d for %v is %d %x, model has %d %x", step, i, origin,
						got[i].seq, got[i].image, want[i].seq, want[i].msg.Marshal())
				}
			}
		}
	}
	if st := l.Stats(); st.ViewsInstalled < 20 || st.FwdsSent < 100 {
		t.Errorf("the run installed %d views and forwarded %d messages: too quiet to mean much", st.ViewsInstalled, st.FwdsSent)
	}
}
