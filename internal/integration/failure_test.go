package integration

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/failure"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/netsim"
)

// externalFDStack ignores NAK's layer-level suspicions; membership
// acts only on the external service's verdicts (paper §5).
func externalFDStack() core.StackSpec {
	return core.StackSpec{
		mbrship.NewWith(
			mbrship.WithGossipPeriod(40*time.Millisecond),
			mbrship.WithFlushTimeout(500*time.Millisecond),
			mbrship.WithExternalSuspicions(),
		),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithNakResend(15*time.Millisecond),
			nak.WithSuspectAfter(6),
		),
		com.New,
	}
}

// TestExternalFailureDetectorDrivesMembership builds a group whose
// MBRSHIP layers only act on verdicts from a shared failure.Service —
// "the output of this service can be fed to all instances of the
// MBRSHIP layer, so that the corresponding groups have the same
// (consistent) view of the environment" (§5).
func TestExternalFailureDetectorDrivesMembership(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 131, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	svc := failure.NewService(2) // two observers must agree

	const n = 3
	eps := make([]*core.Endpoint, n)
	groups := make([]*core.Group, n)
	cols := make([]*vsCollector, n)
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("%c", 'a'+i)
		eps[i] = net.NewEndpoint(site)
		cols[i] = newVSCollector(site)
		handler := svc.WrapHandler(&groups[i], cols[i].handler())
		g, err := eps[i].Join("grp", externalFDStack(), handler)
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = g
	}
	if err := net.Form(groups, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	// c crashes. NAK raises PROBLEM at a and b; the wrapped handlers
	// report to the service; once both agree, verdicts trigger
	// flush downcalls everywhere.
	net.At(net.Now(), func() { net.Crash(eps[2].ID()) })
	net.RunFor(3 * time.Second)

	for _, c := range cols[:2] {
		v := c.lastView()
		if v == nil || v.Size() != 2 {
			t.Fatalf("%s: view %v after external-FD verdict, want 2 members", c.name, v)
		}
	}
	if got := svc.Faulty(); len(got) != 1 || got[0] != eps[2].ID() {
		t.Errorf("service verdicts = %v", got)
	}
}

// TestExternalFDRequiresQuorum shows the flip side: a single
// observer's suspicion does not move the group.
func TestExternalFDRequiresQuorum(t *testing.T) {
	svc := failure.NewService(2)
	var g *core.Group
	h := svc.WrapHandler(&g, nil)
	// One observer reports a problem; no verdict must fire (WrapHandler
	// would Flush through g, which is nil — a panic would fail the
	// test).
	h(&core.Event{Type: core.UProblem, Source: core.EndpointID{Site: "x", Birth: 9}})
	if got := svc.Faulty(); len(got) != 0 {
		t.Fatalf("verdict from a single observer: %v", got)
	}
}

// TestManualMergeGrant exercises the MERGE_REQUEST upcall /
// merge_granted downcall path: the application arbitrates merges.
func TestManualMergeGrant(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 137, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	mkStack := func() core.StackSpec {
		return core.StackSpec{
			mbrship.NewWith(
				mbrship.WithGossipPeriod(40*time.Millisecond),
				mbrship.WithFlushTimeout(500*time.Millisecond),
				mbrship.WithManualMergeGrant(),
			),
			nak.NewWith(
				nak.WithStatusPeriod(20*time.Millisecond),
				nak.WithSuspectAfter(6),
			),
			com.New,
		}
	}
	epA := net.NewEndpoint("a")
	epB := net.NewEndpoint("b")
	var requests []core.EndpointID
	var ga *core.Group
	ca := newVSCollector("a")
	handlerA := func(ev *core.Event) {
		if ev.Type == core.UMergeRequest {
			requests = append(requests, ev.Contact)
			if string(ev.Contact.Site) == "b" {
				ga.MergeGranted(ev.Contact)
			} else {
				ga.MergeDenied(ev.Contact, "not on the list")
			}
			return
		}
		ca.handler()(ev)
	}
	var err error
	ga, err = epA.Join("grp", mkStack(), handlerA)
	if err != nil {
		t.Fatal(err)
	}
	cb := newVSCollector("b")
	gb, err := epB.Join("grp", mkStack(), cb.handler())
	if err != nil {
		t.Fatal(err)
	}
	net.At(50*time.Millisecond, func() { gb.Merge(epA.ID()) })
	net.RunFor(2 * time.Second)

	if len(requests) == 0 {
		t.Fatal("no MERGE_REQUEST upcall reached the application")
	}
	if v := cb.lastView(); v == nil || v.Size() != 2 {
		t.Fatalf("granted merge did not complete: %v", cb.lastView())
	}
}
