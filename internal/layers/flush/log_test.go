package flush_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"horus/internal/core"
	"horus/internal/message"
)

// TestFlushForwardsWhatWasDelivered drives FLUSH through random
// deliveries — casts named by the stability layer below and forwards, duplicates among them, and
// forwards that run ahead of an origin's stream — stability reports and
// view changes, and demands of every flush that it forward exactly the
// bytes that were delivered and not yet proven stable: origins oldest
// first, each origin's casts in the order they were delivered. The
// layers above pop and push on every delivered message before FLUSH's
// upcall returns, so a log entry that views storage someone still
// writes, or is taken after the upcall, fails here.
func TestFlushForwardsWhatWasDelivered(t *testing.T) {
	h, p1, p2 := setup(t)
	origins := []core.EndpointID{h.Self(), p1, p2}
	sort.Slice(origins, func(i, j int) bool { return origins[i].Older(origins[j]) })
	rng := rand.New(rand.NewSource(23))
	randomBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}

	type logged struct {
		seq   uint64
		image []byte
	}
	model := map[core.EndpointID][]logged{} // this view's unstable deliveries
	seen := map[core.MsgID]bool{}           // every delivery: identities outlive views
	top := map[core.EndpointID]uint64{}     // the highest number drawn per origin
	viewSeq := uint64(1)
	flushes := 0
	hdrLen := 0 // the header the layers above pop from the next delivery
	h.Top.Hook = func(ev *core.Event) {
		if ev.Type == core.UCast {
			ev.Msg.Pop(hdrLen)
			ev.Msg.PushUint(rng.Uint64())
		}
	}

	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(100); {
		case op < 70: // a cast arrives, named by the layer below or, from p1, forwarded
			forwarded := op >= 45
			origin := origins[rng.Intn(len(origins))]
			seq := top[origin] + 1
			if forwarded && rng.Intn(2) == 0 {
				seq++ // a forward may run ahead of the origin's stream
			}
			if rng.Intn(6) == 0 && top[origin] > 0 {
				seq = 1 + uint64(rng.Int63n(int64(top[origin]))) // a duplicate or a gap filled
			}
			top[origin] = max(top[origin], seq)
			hdr, body := randomBytes(rng.Intn(12)), randomBytes(rng.Intn(40))
			m := message.New(body)
			m.Push(hdr)
			if forwarded {
				m = fwd(origin, seq, m)
			}
			arrived, err := message.Unmarshal(m.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			ev := &core.Event{Type: core.UCast, Msg: arrived, Source: origin, ID: core.MsgID{Origin: origin, Seq: seq}}
			if forwarded {
				ev = &core.Event{Type: core.USend, Msg: arrived, Source: p1}
			}
			hdrLen = len(hdr)
			h.Reset()
			h.InjectUp(ev)
			id := core.MsgID{Origin: origin, Seq: seq}
			if seen[id] {
				if len(h.UpOfType(core.UCast)) != 0 {
					t.Fatalf("step %d: %v/%d delivered twice", step, origin, seq)
				}
				continue
			}
			seen[id] = true
			model[origin] = append(model[origin], logged{seq, message.FromParts(hdr, body).Marshal()})
		case op < 82: // STABLE reports
			m := core.NewStabilityMatrix(origins)
			for i, o := range origins {
				for j := range origins {
					m.Raise(i, j, uint64(rng.Int63n(int64(top[o])+1)))
				}
				stable := m.MinStable(i)
				keep := model[o][:0]
				for _, e := range model[o] {
					if e.seq > stable {
						keep = append(keep, e)
					}
				}
				model[o] = keep
			}
			h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: m}})
		case op < 94: // a flush
			flushes++
			h.Reset()
			h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{}})
			got, _ := forwards(t, h.Net, h.DownOfType(core.DSend))
			var want []string
			for _, o := range origins {
				for _, e := range model[o] {
					want = append(want, fmt.Sprintf("%v/%d %x", o, e.seq, e.image))
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: flush forwarded\n%v\nwant\n%v", step, got, want)
			}
		default: // the next view: the log starts over
			viewSeq++
			v := core.NewView(core.ViewID{Seq: viewSeq, Coord: origins[0]}, "test", origins)
			h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v, Primary: true}})
			model = map[core.EndpointID][]logged{}
		}
	}
	if flushes < 100 {
		t.Errorf("%d flushes: too few to mean much", flushes)
	}
}
