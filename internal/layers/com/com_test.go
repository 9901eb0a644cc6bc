package com_test

import (
	"reflect"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/message"
	"horus/internal/netsim"
)

// pair builds two endpoints running COM-only stacks on one network.
func pair(t *testing.T, filtering bool) (*netsim.Network, *core.Group, *core.Group, *[]*core.Event, *[]*core.Event) {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: 1})
	factory := com.New
	if filtering {
		factory = com.NewFiltering
	}
	mk := func(name string, sink *[]*core.Event) *core.Group {
		ep := net.NewEndpoint(name)
		var g *core.Group
		g, err := ep.Join("g", core.StackSpec{factory}, func(ev *core.Event) {
			g.Hold(ev)
			*sink = append(*sink, ev)
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var evA, evB []*core.Event
	ga := mk("a", &evA)
	gb := mk("b", &evB)
	return net, ga, gb, &evA, &evB
}

func casts(evs []*core.Event) []*core.Event {
	var out []*core.Event
	for _, ev := range evs {
		if ev.Type == core.UCast {
			out = append(out, ev)
		}
	}
	return out
}

func TestCastCarriesSourceAddress(t *testing.T) {
	net, ga, gb, _, evB := pair(t, false)
	core.InstallView(ga, gb)
	ga.Cast(message.New([]byte("hi")))
	net.RunFor(time.Millisecond)

	got := casts(*evB)
	if len(got) != 1 {
		t.Fatalf("b received %d casts, want 1", len(got))
	}
	if got[0].Source != ga.Endpoint().ID() {
		t.Errorf("source = %v, want %v (P11)", got[0].Source, ga.Endpoint().ID())
	}
	if string(got[0].Msg.Body()) != "hi" {
		t.Errorf("body = %q", got[0].Msg.Body())
	}
}

func TestCastWithoutViewBroadcasts(t *testing.T) {
	net, ga, _, _, evB := pair(t, false)
	// No view installed: the cast reaches everyone on the medium.
	ga.Cast(message.New([]byte("anyone there")))
	net.RunFor(time.Millisecond)
	if len(casts(*evB)) != 1 {
		t.Fatal("view-less cast did not broadcast")
	}
}

func TestSubsetSendOnlyReachesDests(t *testing.T) {
	net, ga, gb, evA, evB := pair(t, false)
	ga.Send([]core.EndpointID{gb.Endpoint().ID()}, message.New([]byte("direct")))
	net.RunFor(time.Millisecond)
	var sends int
	for _, ev := range *evB {
		if ev.Type == core.USend {
			sends++
		}
	}
	if sends != 1 {
		t.Fatalf("b received %d sends, want 1", sends)
	}
	for _, ev := range *evA {
		if ev.Type == core.USend {
			t.Fatal("sender received its own subset send")
		}
	}
}

func TestFilteringDropsNonMembers(t *testing.T) {
	net, ga, gb, _, evB := pair(t, true)
	// b's view contains only itself: a is a stranger.
	core.InstallView(gb)
	ga.InstallView(core.NewView(core.ViewID{Seq: 1, Coord: ga.Endpoint().ID()}, "g",
		[]core.EndpointID{ga.Endpoint().ID(), gb.Endpoint().ID()}))
	ga.Cast(message.New([]byte("spurious")))
	net.RunFor(time.Millisecond)
	if len(casts(*evB)) != 0 {
		t.Fatal("filtering COM delivered a non-member's message")
	}
	cl := gb.Focus("COM").(*com.Com)
	if cl.Stats().Filtered != 1 {
		t.Errorf("Filtered = %d, want 1", cl.Stats().Filtered)
	}
}

func TestLocateBeaconsCrossViews(t *testing.T) {
	net, ga, gb, _, evB := pair(t, true)
	// Even with filtering on, locate beacons pass: they exist to find
	// endpoints *outside* the view.
	core.InstallView(gb)
	ga.Endpoint().Do(func() {
		ga.Stack().Down(&core.Event{Type: core.DLocate, Msg: message.New([]byte("beacon"))})
	})
	net.RunFor(time.Millisecond)
	var locates int
	for _, ev := range *evB {
		if ev.Type == core.ULocate {
			locates++
		}
	}
	if locates != 1 {
		t.Fatalf("b saw %d locate beacons, want 1", locates)
	}
}

// A cast goes to the view unless it names its destinations; then it
// goes to exactly those, and an empty list sends nothing: it must never
// reach the transport, which reads an empty list as the whole group.
func TestCastDestinations(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 1})
	var gs []*core.Group
	got := map[core.EndpointID]int{}
	for _, name := range []string{"a", "b", "c"} {
		ep := net.NewEndpoint(name)
		g, err := ep.Join("g", core.StackSpec{com.New}, func(ev *core.Event) {
			if ev.Type == core.UCast {
				got[ep.ID()]++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	view := core.InstallView(gs...).Members
	a, c := gs[0], gs[2].Endpoint().ID()
	var sent [][]core.EndpointID
	a.Endpoint().SetWireTap(func(dests []core.EndpointID, _ []byte) {
		sent = append(sent, append([]core.EndpointID(nil), dests...))
	})
	for _, tc := range []struct {
		name     string
		dests    []core.EndpointID
		transmit [][]core.EndpointID
		reached  []core.EndpointID
	}{
		{"nil", nil, [][]core.EndpointID{view}, view},
		{"named", []core.EndpointID{c}, [][]core.EndpointID{{c}}, []core.EndpointID{c}},
		{"empty", []core.EndpointID{}, nil, nil},
	} {
		sent, got = nil, map[core.EndpointID]int{}
		a.Endpoint().Do(func() {
			a.Stack().Down(&core.Event{Type: core.DCast, Msg: message.New([]byte("x")), Dests: tc.dests})
		})
		net.RunFor(time.Millisecond)
		if !reflect.DeepEqual(sent, tc.transmit) {
			t.Errorf("%s: transmitted to %v, want %v", tc.name, sent, tc.transmit)
		}
		want := map[core.EndpointID]int{}
		for _, e := range tc.reached {
			want[e] = 1
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: delivered %v, want %v", tc.name, got, want)
		}
	}
}
