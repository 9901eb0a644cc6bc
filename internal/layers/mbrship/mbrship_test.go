package mbrship_test

import (
	"strings"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/mbrship"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/wire"
)

// Unit tests through the single-layer harness; multi-member protocol
// behaviour (flush, merge, virtual synchrony) is covered by
// internal/integration.

func newHarness(t *testing.T, opts ...mbrship.Option) *layertest.Harness {
	t.Helper()
	base := []mbrship.Option{
		mbrship.WithGossipPeriod(20 * time.Millisecond),
		mbrship.WithFlushTimeout(200 * time.Millisecond),
	}
	h := layertest.New(t, mbrship.NewWith(append(base, opts...)...))
	h.Run(time.Millisecond) // fire the initial singleton-view timer
	return h
}

func TestInstallsSingletonViewOnInit(t *testing.T) {
	h := newHarness(t)
	views := h.UpOfType(core.UView)
	if len(views) != 1 {
		t.Fatalf("views = %d, want the initial singleton", len(views))
	}
	v := views[0].View
	if v.Size() != 1 || v.Members[0] != h.Self() || v.ID.Seq != 1 {
		t.Fatalf("initial view = %v", v)
	}
	// The view also propagated downward as a view downcall.
	if got := h.DownOfType(core.DView); len(got) != 1 {
		t.Fatalf("view downcalls = %d", len(got))
	}
	if !views[0].Primary {
		t.Error("default mode must mark every view primary")
	}
}

func TestSelfDeliversOwnCast(t *testing.T) {
	h := newHarness(t)
	h.InjectDown(core.NewCast(message.New([]byte("me too"))))
	got := h.UpOfType(core.UCast)
	if len(got) != 1 || string(got[0].Msg.Body()) != "me too" || got[0].Source != h.Self() {
		t.Fatalf("self delivery = %v", got)
	}
	// And the network copy went out.
	if sent := h.DownOfType(core.DCast); len(sent) != 1 {
		t.Fatalf("casts sent = %d", len(sent))
	}
}

func TestStaleEpochDataDropped(t *testing.T) {
	h := newHarness(t)
	peer := layertest.ID("p", 2)
	// Data stamped with epoch 0 (before our view 1) from an unknown
	// member must not surface.
	m := message.New([]byte("ghost"))
	m.PushUint(7)   // seq
	pushID(m, peer) // view coordinator
	m.PushUint(0)   // epoch
	m.PushUint8(1)  // kData
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
	for _, ev := range h.UpOfType(core.UCast) {
		if string(ev.Msg.Body()) == "ghost" {
			t.Fatal("stale-epoch data delivered")
		}
	}
	l := h.G.Focus("MBRSHIP").(*mbrship.Mbrship)
	if l.Stats().StaleDropped == 0 {
		t.Error("StaleDropped not counted")
	}
}

func TestFutureEpochDataBufferedUntilView(t *testing.T) {
	h := newHarness(t)
	peer := layertest.ID("p", 2)
	// Data from epoch 2 arrives before we install view 2.
	m := message.New([]byte("early"))
	m.PushUint(1)   // seq
	pushID(m, peer) // view coordinator: peer announces view 2 below
	m.PushUint(2)   // epoch
	m.PushUint8(1)  // kData
	h.InjectUp(&core.Event{Type: core.UCast, Msg: m, Source: peer})
	for _, ev := range h.UpOfType(core.UCast) {
		if string(ev.Msg.Body()) == "early" {
			t.Fatal("future-epoch data delivered before its view")
		}
	}
	// The view arrives (as the coordinator would announce it).
	v := core.NewView(core.ViewID{Seq: 2, Coord: peer}, "test",
		[]core.EndpointID{peer, h.Self()})
	vm := message.New(nil)
	pushPreds(vm, core.ViewID{Seq: 1, Coord: h.Self()}) // flushed from our singleton
	pushView(vm, v)
	vm.PushUint8(7) // kView
	h.InjectUp(&core.Event{Type: core.USend, Msg: vm, Source: peer})

	delivered := false
	for _, ev := range h.UpOfType(core.UCast) {
		if string(ev.Msg.Body()) == "early" {
			delivered = true
		}
	}
	if !delivered {
		t.Fatal("buffered future-epoch data not replayed at view install")
	}
}

func TestOlderViewAnnouncementIgnored(t *testing.T) {
	h := newHarness(t)
	peer := layertest.ID("p", 2)
	// First a view 3 installs...
	v3 := core.NewView(core.ViewID{Seq: 3, Coord: peer}, "test",
		[]core.EndpointID{peer, h.Self()})
	m3 := message.New(nil)
	pushPreds(m3, core.ViewID{Seq: 1, Coord: h.Self()})
	pushView(m3, v3)
	m3.PushUint8(7)
	h.InjectUp(&core.Event{Type: core.USend, Msg: m3, Source: peer})
	// ...then a stale view 2 arrives late.
	v2 := core.NewView(core.ViewID{Seq: 2, Coord: peer}, "test",
		[]core.EndpointID{peer})
	m2 := message.New(nil)
	pushPreds(m2, core.ViewID{Seq: 1, Coord: peer})
	pushView(m2, v2)
	m2.PushUint8(7)
	h.InjectUp(&core.Event{Type: core.USend, Msg: m2, Source: peer})

	l := h.G.Focus("MBRSHIP").(*mbrship.Mbrship)
	if got := l.View().ID.Seq; got != 3 {
		t.Fatalf("current view seq = %d, want 3 (older announcement accepted)", got)
	}
}

func TestViewExcludingSelfIgnored(t *testing.T) {
	h := newHarness(t)
	peer := layertest.ID("p", 2)
	v := core.NewView(core.ViewID{Seq: 5, Coord: peer}, "test",
		[]core.EndpointID{peer})
	m := message.New(nil)
	pushPreds(m, core.ViewID{Seq: 4, Coord: peer})
	pushView(m, v)
	m.PushUint8(7)
	h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: peer})
	l := h.G.Focus("MBRSHIP").(*mbrship.Mbrship)
	if l.View().ID.Seq != 1 {
		t.Fatal("adopted a view that excludes us")
	}
}

func TestPrimaryPartitionFlag(t *testing.T) {
	h := newHarness(t, mbrship.WithPrimaryPartition(5))
	// Singleton of a 5-member group: not primary; casts defer.
	views := h.UpOfType(core.UView)
	if len(views) != 1 || views[0].Primary {
		t.Fatalf("singleton view of 5 marked primary: %v", views)
	}
	h.InjectDown(core.NewCast(message.New([]byte("blocked"))))
	if got := h.DownOfType(core.DCast); len(got) != 0 {
		t.Fatal("minority member cast escaped")
	}
	l := h.G.Focus("MBRSHIP").(*mbrship.Mbrship)
	if l.Primary() {
		t.Fatal("Primary() true for 1 of 5")
	}
}

func TestGossipSkipsSingleton(t *testing.T) {
	h := newHarness(t)
	h.Run(200 * time.Millisecond)
	for _, ev := range h.DownOfType(core.DSend) {
		t.Fatalf("singleton member sent control traffic: %v", ev)
	}
}

// TestManualGrantQueuesOneRequestPerRequester: a requester resends its
// merge request every 500 ms until answered. Under manual grant it
// holds one queue entry and raises one MERGE_REQUEST however often it
// asks, the application's first decision answers it, and a view
// installation empties the queue.
func TestManualGrantQueuesOneRequestPerRequester(t *testing.T) {
	requester := layertest.ID("p", 2)
	for _, tc := range []struct {
		name      string
		arrivals  int
		install   bool             // a view installs before the decisions
		decisions []core.EventType // the application's downcalls, in order

		upcalls, granted, denied int
	}{
		{name: "one request", arrivals: 1, upcalls: 1},
		{name: "resends surface once", arrivals: 3, upcalls: 1},
		{name: "resends are denied once", arrivals: 3,
			decisions: []core.EventType{core.DMergeDenied, core.DMergeDenied},
			upcalls:   1, denied: 1},
		{name: "a grant answers every resend", arrivals: 3,
			decisions: []core.EventType{core.DMergeGranted, core.DMergeDenied},
			upcalls:   1, granted: 1},
		{name: "install clears the queue", arrivals: 1, install: true,
			decisions: []core.EventType{core.DMergeGranted},
			upcalls:   1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, mbrship.WithManualMergeGrant())
			reqView := core.NewView(core.ViewID{Seq: 1, Coord: requester}, "test",
				[]core.EndpointID{requester})
			for i := 0; i < tc.arrivals; i++ {
				m := message.New(nil)
				pushView(m, reqView)
				m.PushUint8(9) // kMergeReq
				h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: requester})
			}
			if tc.install {
				peer := layertest.ID("q", 3)
				v := core.NewView(core.ViewID{Seq: 2, Coord: peer}, "test",
					[]core.EndpointID{peer, h.Self()})
				vm := message.New(nil)
				pushPreds(vm, core.ViewID{Seq: 1, Coord: h.Self()})
				pushView(vm, v)
				vm.PushUint8(7) // kView
				h.InjectUp(&core.Event{Type: core.USend, Msg: vm, Source: peer})
			}
			for _, d := range tc.decisions {
				h.InjectDown(&core.Event{Type: d, Detail: &core.Detail{Contact: requester, Reason: "no"}})
			}
			st := h.G.Focus("MBRSHIP").(*mbrship.Mbrship).Stats()
			if got := len(h.UpOfType(core.UMergeRequest)); got != tc.upcalls ||
				st.MergesGranted != tc.granted || st.MergesDenied != tc.denied {
				t.Errorf("MERGE_REQUEST upcalls %d, granted %d, denied %d; want %d, %d, %d",
					got, st.MergesGranted, st.MergesDenied, tc.upcalls, tc.granted, tc.denied)
			}
		})
	}
}

// TestMergeReadyCountsOnlyFromTheGrantedRequester: the coordinator
// grants B's merge and is flushing for it when a merge_ready from A —
// a stale retry of a merge it is no longer granting, from outside B's
// view — arrives. Only B's merge_ready may complete the merge (chaos
// seed 96: installing A stranded the granted B for seconds), and A is
// denied, so that it asks again rather than resending merge_ready until
// its retry budget runs out (chaos -switch seed 59 missed formation).
func TestMergeReadyCountsOnlyFromTheGrantedRequester(t *testing.T) {
	h := newHarness(t)
	a, b := layertest.ID("a", 2), layertest.ID("b", 3)
	req := message.New(nil)
	pushView(req, core.NewView(core.ViewID{Seq: 1, Coord: b}, "test", []core.EndpointID{b}))
	req.PushUint8(9) // kMergeReq
	h.InjectUp(&core.Event{Type: core.USend, Msg: req, Source: b})
	if st := h.G.Focus("MBRSHIP").(*mbrship.Mbrship).Stats(); st.MergesGranted != 1 {
		t.Fatalf("MergesGranted = %d, want B's merge granted", st.MergesGranted)
	}
	ready := func(from core.EndpointID) {
		m := message.New(nil)
		pushID(m, from) // the requester's view coordinator
		m.PushUint(1)   // and sequence
		pushID(m, from) // survivors: from alone
		m.PushUint(1)
		m.PushUint8(12) // kMergeReady
		h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: from})
	}
	lastView := func() *core.View {
		views := h.UpOfType(core.UView)
		return views[len(views)-1].View
	}

	before := len(h.DownOfType(core.DSend))
	ready(a)
	if v := lastView(); v.Contains(a) {
		t.Fatalf("view %v installed from a merge_ready of a requester that was never granted", v)
	}
	denied := false
	for _, ev := range h.DownOfType(core.DSend)[before:] {
		if len(ev.Dests) == 1 && ev.Dests[0] == a && ev.Msg.Clone().PopUint8() == 11 { // kMergeDeny
			denied = true
		}
	}
	if !denied {
		t.Error("the stale merge_ready was not answered with a deny")
	}
	ready(b)
	if v := lastView(); v.Size() != 2 || !v.Contains(b) {
		t.Fatalf("view %v after B's merge_ready, want {self, B}", v)
	}
}

// pushID pushes id whole, as a sender whose transport names nothing
// does (wire.PushEndpointID).
func pushID(m *message.Message, id core.EndpointID) { wire.PushEndpointID(m, id, nil) }

// pushPreds mirrors installNewView's predecessor header: the sealed
// view the announcement was flushed from (pred1) and a zero merge-peer
// predecessor (pred2). Push before pushView.
func pushPreds(m *message.Message, pred1 core.ViewID) {
	pushID(m, core.EndpointID{}) // sealer2: no merge peer
	pushID(m, core.EndpointID{}) // pred2: no merge peer
	m.PushUint(0)
	pushID(m, pred1.Coord)
	m.PushUint(pred1.Seq)
}

// pushView pushes v with every identifier whole (wire.PushView).
func pushView(m *message.Message, v *core.View) { wire.PushView(m, v, nil) }

// TestReceiveDataAllocatesOnlyTheLogEntry pins the data path's cost per
// delivery with no trace hook installed: the entry in the delivery log,
// which holds its clone by value, so what is left is the log's own
// growth — a doubling now and then, under one allocation per delivery
// even here, where nothing ever trims. The view tag's coordinator is
// recognised against the view in place, and the trace call — whose
// arguments would be boxed whether or not anyone listens — is not
// reached.
func TestReceiveDataAllocatesOnlyTheLogEntry(t *testing.T) {
	const runs = 100
	net := netsim.New(netsim.Config{Seed: 1})
	ep := net.NewEndpoint("lean")
	delivered := 0
	g, err := ep.Join("g", core.StackSpec{mbrship.New, func() core.Layer { return &layertest.Sink{} }},
		func(ev *core.Event) {
			if ev.Type == core.UCast {
				delivered++
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	net.RunFor(time.Millisecond) // the initial singleton view
	self := ep.ID()

	// Data as it arrives: views of wire images, in sequence.
	arrivals := make([]*message.Message, runs+2)
	for i := range arrivals {
		m := message.New(make([]byte, 64))
		m.PushUint(uint64(i + 1)) // seq
		pushID(m, self)           // view coordinator
		m.PushUint(1)             // epoch
		m.PushUint8(1)            // kData
		if arrivals[i], err = message.Unmarshal(m.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	ev := &core.Event{}
	arrive := func() {
		*ev = core.Event{Type: core.UCast, Msg: arrivals[next], Source: self}
		next++
		g.Stack().Up(ev)
	}
	if allocs := testing.AllocsPerRun(runs, func() { ep.Do(arrive) }); allocs >= 1 {
		t.Errorf("receiveData: %v allocations per delivery, want less than 1 (the log's amortised growth)", allocs)
	}
	if delivered != runs+1 {
		t.Fatalf("%d of %d arrivals delivered", delivered, runs+1)
	}

	// With a hook the record is still written.
	var traced []string
	ep.SetTrace(func(format string, args ...interface{}) { traced = append(traced, format) })
	ep.Do(arrive)
	if len(traced) != 1 || !strings.Contains(traced[0], "deliver") {
		t.Errorf("trace records with a hook installed: %q", traced)
	}
}
