package netsim_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/netsim"
)

// goldenLayer records every packet that reaches its endpoint as
// (arrival time, destination, length, first byte that differs from the
// pattern every sender uses) into one hash shared by the whole run.
type goldenLayer struct {
	core.Base
	me  byte
	rec *goldenRecorder
}

type goldenRecorder struct {
	sum      hash.Hash64
	arrivals int
	garbled  int
}

func goldenByte(i int) byte { return byte(i*31 + 7) }

func (g *goldenLayer) Name() string { return "GOLDEN" }
func (g *goldenLayer) Down(ev *core.Event) {
	if ev.Type == core.DCast {
		g.Ctx.Transmit(ev.Dests, ev.Msg)
		return
	}
	g.Ctx.Down(ev)
}
func (g *goldenLayer) Up(ev *core.Event) {
	if ev.Type != core.UPacket {
		g.Ctx.Up(ev)
		return
	}
	body := ev.Msg.Body()
	diff := int64(-1)
	for i, b := range body {
		if b != goldenByte(i) {
			diff = int64(i)
			g.rec.garbled++
			break
		}
	}
	var row [8 + 1 + 8 + 8]byte
	binary.BigEndian.PutUint64(row[0:], uint64(g.Ctx.Now()))
	row[8] = g.me
	binary.BigEndian.PutUint64(row[9:], uint64(len(body)))
	binary.BigEndian.PutUint64(row[17:], uint64(diff))
	g.rec.sum.Write(row[:])
	g.rec.arrivals++
}

// TestGoldenDrawOrder pins the fault pipeline's behaviour between
// commits, not just between two runs of one binary: one seed, every
// rule of the vocabulary on at once, and a hash over the ordered stream
// of arrivals plus the final ledger. The constants were recorded before
// the pipeline was moved into Rules; a change to the order of RNG
// draws, to the bucket arithmetic, to hold/release bookkeeping or to
// where a crash is checked moves them. So does the size of a packet:
// they were recorded again when a wire image's header length went from
// four bytes to the one its value takes, which shortens every packet
// here by three bytes and moves the bandwidth and egress arithmetic.
func TestGoldenDrawOrder(t *testing.T) {
	const (
		wantHash     = uint64(0x4cf80b4049d0585a)
		wantArrivals = 10194
		wantStats    = "{Sent:11401 Delivered:10384 Lost:824 Garbled:710 Duplicated:1378 Blocked:716 Bytes:1183757 " +
			"Reordered:1630 Throttled:6559 Congested:1707 CollapseDropped:639} " +
			"a={BacklogBytes:0 Congested:821 CollapseDropped:494} garbledBodies=642"
	)

	net := netsim.New(netsim.Config{Seed: 1995, DefaultLink: netsim.Link{
		Delay: time.Millisecond, Jitter: 3 * time.Millisecond,
		LossRate: 0.05, DupRate: 0.05, GarbleRate: 0.05,
		Bandwidth:   200 * 1024,
		ReorderRate: 0.1, ReorderDepth: 2, ReorderHold: 20 * time.Millisecond,
	}})
	h := fnv.New64a()
	rec := &goldenRecorder{sum: h}
	var eps [4]*core.Endpoint
	var ids [4]core.EndpointID
	for i := range eps {
		l := &goldenLayer{me: byte(i), rec: rec}
		eps[i] = net.NewEndpoint(string(rune('a' + i)))
		ids[i] = eps[i].ID()
		if _, err := eps[i].Join("g", core.StackSpec{func() core.Layer { return l }}, nil); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c, d := ids[0], ids[1], ids[2], ids[3]

	// A directed override (a→b differs from b→a), and a host budget on a
	// small enough that its fan-out queues and, in bursts, overflows.
	net.SetLinkDirected(a, b, netsim.Link{
		Delay: 2 * time.Millisecond, Jitter: time.Millisecond,
		LossRate: 0.2, GarbleRate: 0.2, ReorderRate: 0.3, ReorderHold: 5 * time.Millisecond,
	})
	net.SetHost(a, netsim.Host{EgressBudget: 150 * 1024, EgressQueue: 1024})

	// 4000 ticks 250µs apart; the sender rotates, three ticks in four
	// broadcast (4 destinations) and the fourth is a unicast, so the run
	// would hand the network 4000·(3·4+1)/4 = 13 000 packets were d
	// not to die at 600 ms.
	const ticks = 4000
	for k := 0; k < ticks; k++ {
		k := k
		net.At(time.Duration(k)*250*time.Microsecond, func() {
			from := eps[k%4]
			body := make([]byte, 16+(k*37)%200)
			for i := range body {
				body[i] = goldenByte(i)
			}
			var dests []core.EndpointID
			if k%4 == 3 {
				dests = []core.EndpointID{ids[(k/4)%4]}
			}
			from.Do(func() {
				g := from.Group("g")
				if g == nil {
					return // crashed
				}
				g.Stack().Down(&core.Event{Type: core.DCast, Msg: message.New(body), Dests: dests})
			})
		})
	}

	// The rule table moves under the traffic.
	at := func(ms int, fn func()) { net.At(time.Duration(ms)*time.Millisecond, fn) }
	at(150, func() { net.Partition([]core.EndpointID{a, b}, []core.EndpointID{c, d}) })
	at(210, func() { net.Partition([]core.EndpointID{a, c}, []core.EndpointID{b, d}) })
	at(260, func() { net.Heal() })
	at(300, func() {
		net.SetLink(b, c, netsim.Link{Delay: 500 * time.Microsecond, DupRate: 0.5, Bandwidth: 64 * 1024})
	})
	at(380, func() { net.SetHost(b, netsim.Host{EgressBudget: 100 * 1024}) })
	at(450, func() {
		net.SetDefaultLink(netsim.Link{
			Delay: time.Millisecond, Jitter: 2 * time.Millisecond,
			LossRate: 0.1, DupRate: 0.1, GarbleRate: 0.1,
			Bandwidth:   100 * 1024,
			ReorderRate: 0.25, ReorderHold: 8 * time.Millisecond,
		})
	})
	at(520, func() { net.ClearLink(a, b) })
	at(560, func() { net.ClearHost(a) })
	// d dies with packets held and in flight toward it, and is detached
	// while some of those holds are still waiting for their backstop.
	at(600, func() { net.Crash(d) })
	at(603, func() { net.Detach(d) })
	at(700, func() { net.ClearHost(b) })

	net.RunUntil(2 * time.Second)

	st := net.Stats()
	fb := net.EgressFeedback(a)
	gotStats := fmt.Sprintf("%+v a=%+v garbledBodies=%d", st, fb, rec.garbled)
	if st.Sent < 10000 {
		t.Errorf("only %d sends, want at least 10000", st.Sent)
	}
	for name, n := range map[string]int{
		"Lost": st.Lost, "Garbled": st.Garbled, "Duplicated": st.Duplicated, "Blocked": st.Blocked,
		"Reordered": st.Reordered, "Throttled": st.Throttled, "Congested": st.Congested,
		"CollapseDropped": st.CollapseDropped,
	} {
		if n == 0 {
			t.Errorf("rule never fired: %s = 0", name)
		}
	}
	if got := h.Sum64(); got != wantHash || rec.arrivals != wantArrivals || gotStats != wantStats {
		t.Fatalf("golden run moved:\n hash     %#x, want %#x\n arrivals %d, want %d\n stats    %s\n want     %s",
			got, wantHash, rec.arrivals, wantArrivals, gotStats, wantStats)
	}
}
