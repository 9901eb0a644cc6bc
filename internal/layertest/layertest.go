// Package layertest provides a harness for unit-testing one protocol
// layer in isolation: the layer under test is sandwiched between two
// capture layers on a real endpoint over the simulated network, so
// timers, the event queue, and context plumbing behave exactly as in
// production, while every event the layer emits in either direction is
// recorded and events can be injected above or below it.
package layertest

import (
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/netsim"
)

// Capture is a transparent recording layer. It holds what it records
// as the harness's application would (Group.Hold), so a test may read a
// received packet's event after its upcall has returned.
type Capture struct {
	core.Base
	name   string
	absorb bool        // bottom capture: do not pass downcalls further
	g      *core.Group // the harness's group, whose Hold keeps a record

	// DownEvents and UpEvents record what crossed this layer.
	DownEvents []*core.Event
	UpEvents   []*core.Event

	// Hook, when set, sees every event that reaches the capture before
	// it is recorded: a test plays there what the layers beyond do to
	// an event while the layer under test waits for its call to return.
	Hook func(*core.Event)
}

// Name implements core.Layer.
func (c *Capture) Name() string { return c.name }

// Down implements core.Layer.
func (c *Capture) Down(ev *core.Event) {
	if c.Hook != nil {
		c.Hook(ev)
	}
	c.g.Hold(ev)
	c.DownEvents = append(c.DownEvents, ev) //horus:hcpi-ok — a test's record of what crossed, held through the group above
	if !c.absorb {
		c.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (c *Capture) Up(ev *core.Event) {
	if c.Hook != nil {
		c.Hook(ev)
	}
	c.g.Hold(ev)
	c.UpEvents = append(c.UpEvents, ev) //horus:hcpi-ok — a test's record of what crossed, held through the group above
	c.Ctx.Up(ev)
}

// Sink terminates a stack without a network, counting the downcalls
// that reach it.
type Sink struct {
	core.Base
	Count int
}

// Name implements core.Layer.
func (s *Sink) Name() string { return "SINK" }

// Down implements core.Layer.
func (s *Sink) Down(ev *core.Event) { s.Count++ }

// below stands in for the layers under the one being measured.
type below struct {
	core.Base
	hdr []byte
}

func (*below) Name() string { return "BELOW" }

func (b *below) Down(ev *core.Event) {
	if ev.Msg != nil {
		ev.Msg.Push(b.hdr)
	}
}

// Below returns the factory of a bottom layer that pushes n header
// bytes onto every message sent down, as the layers of a real stack
// would between them, and drops the event. An allocation count taken
// around a layer over it includes the regrowth a message built without
// room for those headers would suffer further down.
func Below(n int) core.Factory {
	return func() core.Layer { return &below{hdr: make([]byte, n)} }
}

// Harness hosts one layer, or a few stacked, between captures.
type Harness struct {
	t   *testing.T
	Net *netsim.Network
	EP  *core.Endpoint
	G   *core.Group
	Top *Capture // records Up events emerging from the layer
	Bot *Capture // records Down events emerging from the layer

	// Handled records events that reached the application handler.
	Handled []*core.Event

	views uint64 // views InstallView has installed
}

// New builds a harness around the layers produced by factories, top
// first: usually one, or a layer with the one it needs beneath it. The
// endpoint is named "self" and attached to a fresh deterministic
// network (seed 1).
func New(t *testing.T, factories ...core.Factory) *Harness {
	t.Helper()
	h := &Harness{
		t:   t,
		Net: netsim.New(netsim.Config{Seed: 1}),
		Top: &Capture{name: "TOP"},
		Bot: &Capture{name: "BOT", absorb: true},
	}
	h.EP = h.Net.NewEndpoint("self")
	spec := append(core.StackSpec{func() core.Layer { return h.Top }}, factories...)
	spec = append(spec, func() core.Layer { return h.Bot })
	g, err := h.EP.Join("test", spec, func(ev *core.Event) {
		h.G.Hold(ev)
		h.Handled = append(h.Handled, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	h.G, h.Top.g, h.Bot.g = g, g, g
	return h
}

// Self returns the harness endpoint's identifier.
func (h *Harness) Self() core.EndpointID { return h.EP.ID() }

// ID makes a peer endpoint identifier for test scripts.
func ID(site string, birth uint64) core.EndpointID {
	return core.EndpointID{Site: site, Birth: birth}
}

// InjectDown delivers ev to the layer's top interface, as if the
// application (or a layer above) issued it.
func (h *Harness) InjectDown(ev *core.Event) {
	h.EP.Do(func() { h.Top.Ctx.Down(ev) }) //horus:hcpi-ok — the test built ev: it is no received packet
}

// InjectUp delivers ev to the layer's bottom interface, as if it
// arrived from the network.
func (h *Harness) InjectUp(ev *core.Event) {
	h.EP.Do(func() { h.Bot.Ctx.Up(ev) }) //horus:hcpi-ok — the test built ev: it is no received packet
}

// Run advances virtual time, firing the layer's timers.
func (h *Harness) Run(d time.Duration) { h.Net.RunFor(d) }

// LastDown returns the most recent event the layer passed down, or
// nil.
func (h *Harness) LastDown() *core.Event {
	if len(h.Bot.DownEvents) == 0 {
		return nil
	}
	return h.Bot.DownEvents[len(h.Bot.DownEvents)-1]
}

// LastUp returns the most recent event the layer passed up, or nil.
func (h *Harness) LastUp() *core.Event {
	if len(h.Top.UpEvents) == 0 {
		return nil
	}
	return h.Top.UpEvents[len(h.Top.UpEvents)-1]
}

// DownOfType filters recorded downward events by type.
func (h *Harness) DownOfType(t core.EventType) []*core.Event {
	var out []*core.Event
	for _, ev := range h.Bot.DownEvents {
		if ev.Type == t {
			out = append(out, ev)
		}
	}
	return out
}

// UpOfType filters recorded upward events by type.
func (h *Harness) UpOfType(t core.EventType) []*core.Event {
	var out []*core.Event
	for _, ev := range h.Top.UpEvents {
		if ev.Type == t {
			out = append(out, ev)
		}
	}
	return out
}

// Reset clears the recorded events.
func (h *Harness) Reset() {
	h.Top.UpEvents = nil
	h.Bot.DownEvents = nil
	h.Handled = nil
}

// InstallView pushes a view downcall through the stack top, the way
// static-membership stacks configure their destination sets, and also
// reflects it upward so layers above see the installation. Each install
// has a ViewID of its own, as a coordinator never issues one twice: the
// first is numbered 1 and later ones count up, coordinated by the first
// member.
func (h *Harness) InstallView(members ...core.EndpointID) *core.View {
	h.views++
	v := core.NewView(core.ViewID{Seq: h.views, Coord: members[0]}, "test", members)
	h.InjectDown(&core.Event{Type: core.DView, Detail: &core.Detail{View: v}})
	h.InjectUp(&core.Event{Type: core.UView, Detail: &core.Detail{View: v, Primary: true}})
	// Layers may finish view handling on a same-instant timer; fire
	// those without moving time.
	h.Net.RunFor(0)
	return v
}
