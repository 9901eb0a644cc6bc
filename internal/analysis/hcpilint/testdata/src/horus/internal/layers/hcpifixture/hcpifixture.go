// Package hcpifixture is the hcpilint fixture: a pretend layer with a
// local Context stand-in and the real message type, exercising the
// callback-while-locked, header-direction and keep-through-a-Queue rules
// in both their flagged and disciplined forms, the last for received
// events and for sends a layer builds.
package hcpifixture

import (
	"sync"

	"horus/internal/message"
)

// Event mirrors the shape of core.Event: a message riding an upcall
// or downcall.
type Event struct {
	Msg *message.Message
}

// Context stands in for core.Context; hcpilint matches Up/Down/
// Transmit methods on any type of this name.
type Context struct{}

func (c *Context) Up(ev *Event)                             {}
func (c *Context) Down(ev *Event)                           {}
func (c *Context) Transmit(dests []int, m *message.Message) {}

// NewSendTo and NewDowncall stand in for core.Context's: a send they
// build is lent for the run that built it.
func (c *Context) NewSendTo(dst, hdr int) *Event { return &Event{Msg: new(message.Message)} }
func (c *Context) NewDowncall(typ int, dests []int, hdr int) *Event {
	return &Event{Msg: new(message.Message)}
}

// Group stands in for core.Group, whose Hold an application handler
// calls; it is no keep for a layer.
type Group struct{}

func (g *Group) Hold(ev *Event) {}

// Queue and OrderedQueue stand in for core's: their Put is the one way
// a layer keeps an event.
type Queue struct{}

func (q *Queue) Put(c *Context, ev *Event) {}

type OrderedQueue struct{}

func (q *OrderedQueue) Put(c *Context, seq uint64, ev *Event) bool { return true }

// Buffer stands in for reorder.Buffer, generic over what it parks, as
// that is; hcpilint matches Put on any type of this name.
type Buffer[T any] struct{}

func (b *Buffer[T]) Put(seq uint64, v T) bool { return true }

// Transport stands in for core.Transport's timer and core.Timers'.
type Transport struct{}

func (t *Transport) SetTimer(fn func()) {}

func (t *Transport) ArmTimer(fn func()) {}

// Layer is a handler object with the classic hazard ingredients: a
// mutex, an upcall context, and a registered callback.
type Layer struct {
	mu        sync.Mutex
	ctx       *Context
	onProblem func(string)
	subs      []func(string)
}

func lockedCallback(l *Layer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onProblem("down") // want `callback l\.onProblem invoked while l\.mu is held`
}

func lockedUpcall(l *Layer, ev *Event) {
	l.mu.Lock()
	l.ctx.Up(ev) // want `upcall Context\.Up invoked while l\.mu is held`
	l.mu.Unlock()
}

func lockedRangeCallback(l *Layer) {
	l.mu.Lock()
	for _, fn := range l.subs {
		fn("verdict") // want `callback fn invoked while l\.mu is held`
	}
	l.mu.Unlock()
}

// earlyUnlockReturn pins the branch logic: the early branch releases
// and returns, so the fall-through still holds the lock.
func earlyUnlockReturn(l *Layer, quiet bool) {
	l.mu.Lock()
	if quiet {
		l.mu.Unlock()
		return
	}
	l.onProblem("still locked") // want `callback l\.onProblem invoked while l\.mu is held`
	l.mu.Unlock()
}

// copyThenCall is the disciplined shape the repo uses everywhere:
// copy under the lock, call after releasing it.
func copyThenCall(l *Layer) {
	l.mu.Lock()
	subs := make([]func(string), len(l.subs))
	copy(subs, l.subs)
	l.mu.Unlock()
	for _, fn := range subs {
		fn("verdict")
	}
}

func pushThenUp(l *Layer, ev *Event) {
	ev.Msg.PushUint8(1)
	l.ctx.Up(ev) // want `header pushed onto ev\.Msg on this path is forwarded up`
}

func popThenDown(l *Layer, ev *Event) {
	_ = ev.Msg.PopUint8()
	l.ctx.Down(ev) // want `header popped from ev\.Msg on this path is forwarded down`
}

func popThenTransmit(l *Layer, ev *Event) {
	_ = ev.Msg.PopUint8()
	l.ctx.Transmit(nil, ev.Msg) // want `header popped from ev\.Msg on this path is forwarded down`
}

// downPathPush and upPathPop are the disciplined directions.
func downPathPush(l *Layer, ev *Event) {
	ev.Msg.PushUint8(1)
	ev.Msg.PushUint(42)
	l.ctx.Down(ev)
}

func upPathPop(l *Layer, ev *Event) {
	_ = ev.Msg.PopUint()
	_ = ev.Msg.PopUint8()
	l.ctx.Up(ev)
}

// pushPopBalanced peeks at its own header and restores it before
// forwarding up — balanced, so accepted.
func pushPopBalanced(l *Layer, ev *Event) {
	kind := ev.Msg.PopUint8()
	ev.Msg.PushUint8(kind)
	l.ctx.Up(ev)
}

// lockedContinuation follows the *Locked suffix convention: a
// func-typed value so named is an internal continuation whose
// contract is "caller holds the lock" — accepted, not a callback.
func lockedContinuation(l *Layer, fireLocked func()) {
	l.mu.Lock()
	fireLocked()
	l.mu.Unlock()
}

// suppressed documents an intentional exception.
func suppressed(l *Layer) {
	l.mu.Lock()
	l.onProblem("monitor") //horus:hcpi-ok — fixture: demonstrates the line-level opt-out
	l.mu.Unlock()
}

// Keeper parks events the ways a layer does.
type Keeper struct {
	ctx     *Context
	g       *Group
	tr      *Transport
	queue   []*Event
	last    *Event
	byID    map[int]*Event
	msgs    []*message.Message
	pending Buffer[*Event]
	values  Buffer[message.Message]
	later   func()
	parked  Queue
	ordered OrderedQueue
}

// reported is a sentinel a layer parks in place of an event: it is no
// parameter, so keeping it keeps no received record.
var reported = new(Event)

func (k *Keeper) appendUnheld(ev *Event) {
	k.queue = append(k.queue, ev) // want `event ev is kept past the call \(stored in k\.queue\) other than through Queue\.Put`
}

func (k *Keeper) assignUnheld(ev *Event) {
	k.last = ev // want `event ev is kept past the call \(stored in k\.last\)`
}

func (k *Keeper) mapUnheld(ev *Event, id int) {
	k.byID[id] = ev // want `event ev is kept past the call \(stored in k\.byID\[id\]\)`
}

func (k *Keeper) msgUnheld(ev *Event) {
	k.msgs = append(k.msgs, ev.Msg) // want `event ev is kept past the call \(stored in k\.msgs\)`
}

// putUnheld parks the event itself in an event-typed reorder buffer
// rather than an OrderedQueue.
func (k *Keeper) putUnheld(ev *Event) {
	k.pending.Put(7, ev) // want `event ev is kept past the call \(held in a reorder buffer\)`
}

func (k *Keeper) storedClosureUnheld(ev *Event) {
	k.later = func() { k.ctx.Up(ev) } // want `event ev is kept past the call \(stored in k\.later\)`
}

func (k *Keeper) timerClosureUnheld(ev *Event) {
	k.tr.SetTimer(func() { k.ctx.Up(ev) }) // want `event ev is kept past the call \(captured by a func handed to SetTimer\)`
}

func (k *Keeper) armedTimerClosureUnheld(ev *Event) {
	k.tr.ArmTimer(func() { k.ctx.Up(ev) }) // want `event ev is kept past the call \(captured by a func handed to ArmTimer\)`
}

// appendAfterGroupHold holds as a handler would, and still keeps the
// event in a structure of its own: a layer parks through a Queue.
func (k *Keeper) appendAfterGroupHold(ev *Event) {
	k.g.Hold(ev)
	k.queue = append(k.queue, ev) // want `event ev is kept past the call \(stored in k\.queue\)`
}

// parkInQueue and parkInOrder keep the event the one way.
func (k *Keeper) parkInQueue(ev *Event) {
	k.parked.Put(k.ctx, ev)
}

func (k *Keeper) parkInOrder(ev *Event) {
	k.ordered.Put(k.ctx, 7, ev)
}

// sentinel parks the reported stand-in, which is no received event.
func (k *Keeper) sentinel(ev *Event) {
	k.pending.Put(7, reported)
	k.ctx.Up(ev)
}

// putMessageCopy parks a copy of the event's message in a value-typed
// buffer, as NAK does: the copy is the buffer's own and keeps nothing
// of the record, so it needs no Queue.
func (k *Keeper) putMessageCopy(ev *Event) {
	k.values.Put(7, *ev.Msg)
}

// readOnly keeps what it reads of the event, never the event.
func (k *Keeper) readOnly(ev *Event) {
	body := ev.Msg.Body()
	local := ev
	_ = local
	k.byID[len(body)] = nil
}

// suppressedKeep documents an intentional exception.
func (k *Keeper) suppressedKeep(ev *Event) {
	k.last = ev //horus:hcpi-ok — fixture: demonstrates the line-level opt-out
}

// Sender builds sends the ways a layer does. A send is lent for the
// run that built it, so it is kept the way a received event is: handed
// down, or parked.
type Sender struct {
	ctx    *Context
	tr     *Transport
	last   *Event
	queue  []*Event
	byID   map[int]*Event
	msgs   []*message.Message
	later  func()
	parked Queue
}

func (s *Sender) storeBuilt() {
	ev := s.ctx.NewSendTo(1, 0)
	s.last = ev // want `event ev is kept past the call \(stored in s\.last\) other than through Queue\.Put — a send's record is reused once the run that built it ends`
}

func (s *Sender) appendBuilt() {
	var ev = s.ctx.NewDowncall(1, nil, 0)
	s.queue = append(s.queue, ev) // want `event ev is kept past the call \(stored in s\.queue\)`
}

func (s *Sender) mapBuilt(id int) {
	ev := s.ctx.NewSendTo(id, 0)
	s.byID[id] = ev // want `event ev is kept past the call \(stored in s\.byID\[id\]\)`
}

func (s *Sender) msgBuilt() {
	ev := s.ctx.NewSendTo(1, 0)
	s.msgs = append(s.msgs, ev.Msg) // want `event ev is kept past the call \(stored in s\.msgs\)`
}

func (s *Sender) storedAsBuilt() {
	s.last = s.ctx.NewSendTo(1, 0) // want `event built by s\.ctx\.NewSendTo is kept past the call \(stored in s\.last\)`
}

func (s *Sender) storedClosureBuilt() {
	ev := s.ctx.NewSendTo(1, 0)
	s.later = func() { s.ctx.Down(ev) } // want `event ev is kept past the call \(stored in s\.later\)`
}

func (s *Sender) timerClosureBuilt() {
	ev := s.ctx.NewDowncall(1, nil, 0)
	s.tr.SetTimer(func() { s.ctx.Down(ev) }) // want `event ev is kept past the call \(captured by a func handed to SetTimer\)`
}

// builtInLiteral builds and keeps within a func literal, its own
// context.
func (s *Sender) builtInLiteral() {
	build := func() {
		ev := s.ctx.NewSendTo(1, 0)
		s.last = ev // want `event ev is kept past the call \(stored in s\.last\)`
	}
	build()
}

// sendBuilt and parkBuilt keep a send the two ways it may be kept.
func (s *Sender) sendBuilt() {
	ev := s.ctx.NewSendTo(1, 0)
	ev.Msg.PushUint8(1)
	s.ctx.Down(ev)
}

func (s *Sender) parkBuilt() {
	ev := s.ctx.NewDowncall(1, nil, 0)
	s.parked.Put(s.ctx, ev)
}
