package vss_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"horus/internal/core"
	"horus/internal/message"
)

// TestVSSResendsWhatWasCast drives VSS through random casts of its own,
// stability reports and flushes, and demands of every flush that it
// resend exactly the bytes that were cast and not yet proven stable, in
// the order they were cast. The layers below push their headers onto
// each cast before VSS's downcall returns, and the application then
// rewrites the buffer it cast from, so a buffered copy that views
// storage someone still writes, or is taken after the downcall, fails
// here.
func TestVSSResendsWhatWasCast(t *testing.T) {
	h, p := setup(t)
	members := []core.EndpointID{h.Self(), p}
	rng := rand.New(rand.NewSource(29))
	randomBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}

	type cast struct {
		seq   uint64
		image []byte
	}
	var model []cast // our casts not yet proven stable
	seq, flushes := uint64(0), 0
	h.Bot.Hook = func(ev *core.Event) {
		if ev.Type == core.DCast {
			ev.Msg.PushUint(rng.Uint64())
			ev.Msg.PushString("lower headers")
		}
	}

	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(100); {
		case op < 60: // a cast of our own
			hdr, body := randomBytes(rng.Intn(12)), randomBytes(rng.Intn(40))
			m := message.New(body)
			m.Push(hdr)
			seq++
			model = append(model, cast{seq, message.FromParts(hdr, body).Marshal()})
			h.Reset()
			h.InjectDown(core.NewCast(m))
			rng.Read(body)
		case op < 85: // STABLE reports
			m := core.NewStabilityMatrix(members)
			self := slices.Index(members, h.Self())
			for j := range members {
				m.Raise(self, j, uint64(rng.Int63n(int64(seq)+1)))
			}
			stable := m.MinStable(self)
			keep := model[:0]
			for _, c := range model {
				if c.seq > stable {
					keep = append(keep, c)
				}
			}
			model = keep
			h.InjectUp(&core.Event{Type: core.UStable, Detail: &core.Detail{Stability: m}})
		default: // a flush
			flushes++
			h.Reset()
			h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{}})
			got, _ := forwards(t, h.Net, h.DownOfType(core.DSend))
			var want []string
			for _, c := range model {
				want = append(want, fmt.Sprintf("%v/%d %x", h.Self(), c.seq, c.image))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: flush resent\n%v\nwant\n%v", step, got, want)
			}
		}
	}
	if flushes < 100 {
		t.Errorf("%d flushes: too few to mean much", flushes)
	}
}
