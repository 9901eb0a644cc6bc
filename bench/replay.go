package main

import (
	"fmt"
	"runtime"
	"time"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/netsim"
)

// The replay times the send and the receive path without a fabric.
// Wire images of 64-byte casts are captured with Endpoint.SetWireTap
// from a NAK:COM group on netsim, then fed through message.Unmarshal
// and through Endpoint.Deliver on fresh endpoints built with
// core.NewEndpoint over a transport that does nothing; Group.Cast is
// timed into the same kind of transport. The stack is the waist on
// every workload: a replay through a membership layer would have to
// forge its view agreement.

const (
	replayCasts = 4096
	replayReps  = 5
	replayBody  = 64
)

type replayResult struct {
	n                            int
	castNs, castAllocs           float64
	deliverNs, deliverAllocs     float64
	unmarshalNs, unmarshalAllocs float64
	marshalNs                    float64
}

// nullTransport swallows sends and never fires a timer.
type nullTransport struct{ sent int }

func (t *nullTransport) Send(core.EndpointID, core.GroupAddr, []core.EndpointID, []byte) { t.sent++ }
func (t *nullTransport) SetTimer(time.Duration, func()) func()                           { return func() {} }
func (t *nullTransport) Now() time.Duration                                              { return 0 }

// timed runs fn and returns wall ns and heap allocations per op.
func timed(ops int, fn func()) (ns, allocs float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	return float64(d.Nanoseconds()) / float64(ops), float64(b.Mallocs-a.Mallocs) / float64(ops)
}

func runReplay(seed int64) (*replayResult, error) {
	st, err := buildStack(waist)
	if err != nil {
		return nil, err
	}
	const members = 4
	addr := core.GroupAddr("bench/replay")

	// Capture: member 0 casts replayCasts times; keep its cast images.
	net := netsim.New(netsim.Config{Seed: seed, DefaultLink: lossless})
	ids := make([]core.EndpointID, members)
	eps := make([]*core.Endpoint, members)
	groups := make([]*core.Group, members)
	for i := range eps {
		eps[i] = net.NewEndpoint(fmt.Sprintf("r%d", i))
		ids[i] = eps[i].ID()
	}
	var images [][]byte
	eps[0].SetWireTap(func(dests []core.EndpointID, wire []byte) {
		if len(dests) == members { // a cast; status and NAK traffic is unicast
			images = append(images, append([]byte(nil), wire...))
		}
	})
	for i, ep := range eps {
		if groups[i], err = ep.Join(addr, st.spec, func(*core.Event) {}); err != nil {
			return nil, err
		}
	}
	view := core.NewView(core.ViewID{Seq: 1, Coord: ids[0]}, addr, ids)
	for _, g := range groups {
		g.InstallView(view)
	}
	fill := newFiller(seed, replayBody)
	for i := 0; i < replayCasts; i++ {
		groups[0].Cast(message.New(fill.newPayload(replayBody, 0, uint64(i+1), 0)))
	}
	net.RunFor(100 * time.Millisecond)
	if len(images) != replayCasts {
		return nil, fmt.Errorf("captured %d cast images, want %d", len(images), replayCasts)
	}

	res := &replayResult{n: replayCasts * replayReps}
	var castNs, castAl, delNs, delAl, unNs, unAl, maNs []float64
	for rep := 0; rep < replayReps; rep++ {
		// Receive path: a fresh member 1 sees member 0's stream in order.
		delivered := 0
		rx := core.NewEndpoint(ids[1], &nullTransport{})
		g, err := rx.Join(addr, st.spec, func(ev *core.Event) {
			if ev.Type == core.UCast {
				delivered++
			}
		})
		if err != nil {
			return nil, err
		}
		g.InstallView(view)
		ns, al := timed(replayCasts, func() {
			for _, w := range images {
				rx.Deliver(addr, w)
			}
		})
		if delivered != replayCasts {
			return nil, fmt.Errorf("replayed %d images, %d delivered", replayCasts, delivered)
		}
		delNs, delAl = append(delNs, ns), append(delAl, al)

		msgs := make([]*message.Message, len(images))
		ns, al = timed(replayCasts, func() {
			for i, w := range images {
				msgs[i], _ = message.Unmarshal(w) // images came from Marshal
			}
		})
		unNs, unAl = append(unNs, ns), append(unAl, al)
		ns, _ = timed(replayCasts, func() {
			for _, m := range msgs {
				sinkBytes = m.Marshal()
			}
		})
		maNs = append(maNs, ns)

		// Send path: a fresh member 0 casts into the void.
		tx := core.NewEndpoint(ids[0], &nullTransport{})
		tg, err := tx.Join(addr, st.spec, func(*core.Event) {})
		if err != nil {
			return nil, err
		}
		tg.InstallView(view)
		payloads := make([][]byte, replayCasts)
		for i := range payloads {
			payloads[i] = fill.newPayload(replayBody, 0, uint64(i+1), 0)
		}
		ns, al = timed(replayCasts, func() {
			for _, p := range payloads {
				tg.Cast(message.New(p))
			}
		})
		castNs, castAl = append(castNs, ns), append(castAl, al)
	}
	res.castNs, res.castAllocs = median(castNs), median(castAl)
	res.deliverNs, res.deliverAllocs = median(delNs), median(delAl)
	res.unmarshalNs, res.unmarshalAllocs = median(unNs), median(unAl)
	res.marshalNs = median(maNs)
	return res, nil
}

// sinkBytes keeps the compiler from discarding timed results.
var sinkBytes []byte
