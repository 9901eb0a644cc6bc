package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/message"
)

// The schedule tests drive the network from a script and check every
// event against a model that keeps its pending events in a plain list:
// each one must run exactly once, in the stable order of (due time,
// schedule call), whether or not a run of deliveries shares its heap
// slot.

type opKind int

const (
	opSend     opKind = iota // who sends to dests; no dests: the group
	opTimer                  // ArmTimer(d)
	opCancel                 // cancel timer who
	opAt                     // At(now+d), which may lie in the past; runs then when it fires
	opStep                   // Step
	opRunUntil               // RunUntil(now+d)
	opCrash                  // Crash(who)
	opDetach                 // Detach(who)
)

type op struct {
	kind  opKind
	who   int
	dests []int
	d     time.Duration
	then  *op // opAt: a send, crash or detach run by the scripted action
}

const scheduleEndpoints = 5

// pending is one event the model expects to run.
type pending struct {
	at        time.Duration
	ord       int // schedule call order
	label     string
	to        int // receiver of a delivery; -1 for a callback
	cancelled *bool
}

type scheduleRun struct {
	t         testing.TB
	n         *Network
	eps       []*core.Endpoint
	members   []int // live group members, in join order
	crashed   []bool
	delay     [][]time.Duration
	now       time.Duration
	ord       int
	want      []pending
	timers    []core.TimerHandle
	cancelled []*bool
	sends     int
	callbacks int

	// During Step the model has already chosen the event to run: step
	// holds it, and observed records that it ran.
	stepping bool
	step     pending
	observed bool
	deadline time.Duration
}

// scheduleLog is a stack that reports each packet it receives.
type scheduleLog struct {
	core.Base
	run *scheduleRun
	me  int
}

func (l *scheduleLog) Name() string        { return "LOG" }
func (l *scheduleLog) Down(ev *core.Event) { l.Ctx.Down(ev) }
func (l *scheduleLog) Up(ev *core.Event) {
	if ev.Type == core.UPacket {
		l.run.observe(fmt.Sprintf("%d<-%s", l.me, ev.Msg.Body()))
		return
	}
	l.Ctx.Up(ev)
}

func newScheduleRun(t testing.TB, delay func(from, to int) time.Duration) *scheduleRun {
	s := &scheduleRun{
		t:       t,
		n:       New(Config{Seed: 1}),
		crashed: make([]bool, scheduleEndpoints),
		delay:   make([][]time.Duration, scheduleEndpoints),
	}
	for i := 0; i < scheduleEndpoints; i++ {
		ep := s.n.NewEndpoint(fmt.Sprint("e", i))
		l := &scheduleLog{run: s, me: i}
		if _, err := ep.Join("g", core.StackSpec{func() core.Layer { return l }}, nil); err != nil {
			t.Fatal(err)
		}
		s.eps = append(s.eps, ep)
		s.members = append(s.members, i)
	}
	for a := range s.delay {
		s.delay[a] = make([]time.Duration, scheduleEndpoints)
		for b := range s.delay[a] {
			s.delay[a][b] = delay(a, b)
			s.n.SetLinkDirected(s.eps[a].ID(), s.eps[b].ID(), Link{Delay: s.delay[a][b]})
		}
	}
	return s
}

func (s *scheduleRun) push(p pending) {
	p.ord = s.ord
	s.ord++
	s.want = append(s.want, p)
}

// pop is popLocked over the model: the earliest event, unless it is live
// and due after deadline; cancelled events are discarded on the way.
func (s *scheduleRun) pop(deadline time.Duration) (pending, bool) {
	for len(s.want) > 0 {
		min := 0
		for i, p := range s.want {
			if p.at < s.want[min].at || p.at == s.want[min].at && p.ord < s.want[min].ord {
				min = i
			}
		}
		p := s.want[min]
		dead := p.cancelled != nil && *p.cancelled
		if p.at > deadline && !dead {
			break
		}
		s.want = append(s.want[:min], s.want[min+1:]...)
		if dead {
			continue
		}
		s.now = p.at
		return p, true
	}
	return pending{}, false
}

// dropped reports whether a delivery reaches a crashed or detached
// receiver, which runs as an event but delivers nothing.
func (s *scheduleRun) dropped(p pending) bool { return p.to >= 0 && s.crashed[p.to] }

// observe checks that label is what the model says runs next.
func (s *scheduleRun) observe(label string) {
	s.t.Helper()
	if s.stepping {
		if s.observed || label != s.step.label || s.dropped(s.step) {
			s.t.Fatalf("Step ran %s; want %s due at %v (dropped %v)", label, s.step.label, s.step.at, s.dropped(s.step))
		}
		s.observed = true
	} else {
		for {
			p, ok := s.pop(s.deadline)
			if !ok {
				s.t.Fatalf("%s ran at %v; nothing was due by %v", label, s.n.Now(), s.deadline)
			}
			if s.dropped(p) {
				continue
			}
			if p.label != label {
				s.t.Fatalf("%s ran at %v; want %s due at %v", label, s.n.Now(), p.label, p.at)
			}
			break
		}
	}
	if got := s.n.Now(); got != s.now {
		s.t.Fatalf("%s ran at %v; want %v", label, got, s.now)
	}
}

func (s *scheduleRun) do(o op) {
	s.t.Helper()
	switch o.kind {
	case opSend:
		s.sends++
		body := fmt.Sprint("s", s.sends)
		var ids []core.EndpointID
		for _, d := range o.dests {
			ids = append(ids, s.eps[d].ID())
		}
		s.n.Send(s.eps[o.who].ID(), "g", ids, message.New([]byte(body)).AppendWire(nil))
		if s.crashed[o.who] {
			return
		}
		targets := o.dests
		if len(targets) == 0 {
			targets = append([]int(nil), s.members...)
		}
		for _, d := range targets {
			if !s.crashed[d] {
				s.push(pending{at: s.now + s.delay[o.who][d], label: fmt.Sprintf("%d<-%s", d, body), to: d})
			}
		}
	case opTimer:
		s.callbacks++
		label := fmt.Sprint("t", s.callbacks)
		cancelled := new(bool)
		s.timers = append(s.timers, s.n.ArmTimer(o.d, func() { s.observe(label) }))
		s.cancelled = append(s.cancelled, cancelled)
		s.push(pending{at: s.now + o.d, label: label, to: -1, cancelled: cancelled})
	case opCancel:
		if len(s.timers) == 0 {
			return
		}
		i := o.who % len(s.timers)
		s.n.CancelTimer(s.timers[i])
		*s.cancelled[i] = true
	case opAt:
		s.callbacks++
		label := fmt.Sprint("a", s.callbacks)
		at := s.now + o.d
		then := o.then
		s.n.At(at, func() {
			s.observe(label)
			if then != nil {
				s.do(*then)
			}
		})
		if at < s.now {
			at = s.now
		}
		s.push(pending{at: at, label: label, to: -1})
	case opStep:
		p, ok := s.pop(math.MaxInt64)
		s.stepping, s.step, s.observed = true, p, false
		ran := s.n.Step()
		s.stepping = false
		if ran != ok {
			s.t.Fatalf("Step returned %v; want %v", ran, ok)
		}
		if ok && s.observed == s.dropped(p) {
			s.t.Fatalf("Step ran %s (observed %v, dropped %v)", p.label, s.observed, s.dropped(p))
		}
		if got := s.n.Now(); got != s.now {
			s.t.Fatalf("after Step: Now %v, want %v", got, s.now)
		}
	case opRunUntil:
		s.deadline = s.now + o.d
		s.n.RunUntil(s.deadline)
		for {
			p, ok := s.pop(s.deadline)
			if !ok {
				break
			}
			if !s.dropped(p) {
				s.t.Fatalf("%s due at %v did not run by %v", p.label, p.at, s.deadline)
			}
		}
		if s.now < s.deadline {
			s.now = s.deadline
		}
		if got := s.n.Now(); got != s.now {
			s.t.Fatalf("after RunUntil: Now %v, want %v", got, s.now)
		}
	case opCrash, opDetach:
		id := s.eps[o.who].ID()
		if o.kind == opCrash {
			s.n.Crash(id)
		} else {
			s.n.Detach(id)
		}
		s.crashed[o.who] = true
		for i, m := range s.members {
			if m == o.who {
				s.members = append(s.members[:i], s.members[i+1:]...)
				break
			}
		}
	}
	if want := fmt.Sprintf("pending=%d}", len(s.want)); !strings.HasSuffix(s.n.String(), want) {
		s.t.Fatalf("after op %+v: %s, want %s", o, s.n.String(), want)
	}
}

// script runs ops, then drains the network: whatever is left must run.
func (s *scheduleRun) script(ops []op) {
	s.t.Helper()
	for _, o := range ops {
		s.do(o)
	}
	s.do(op{kind: opRunUntil, d: time.Hour})
	if len(s.want) != 0 {
		s.t.Fatalf("%d events never ran", len(s.want))
	}
	if s.n.Step() {
		s.t.Fatal("Step ran an event after the drain")
	}
}

func TestScheduleOrder(t *testing.T) {
	ms := time.Millisecond
	every := func(d time.Duration) func(int, int) time.Duration {
		return func(int, int) time.Duration { return d }
	}
	send := func(from int, dests ...int) op { return op{kind: opSend, who: from, dests: dests} }
	step := op{kind: opStep}
	for _, tc := range []struct {
		name  string
		delay func(from, to int) time.Duration
		ops   []op
	}{
		{"a fan-out steps one delivery at a time", every(ms), []op{
			send(0, 1, 2, 3, 4), step, step, step, step, step,
		}},
		{"a broadcast runs in join order", every(ms), []op{
			send(2), {kind: opRunUntil, d: 2 * ms},
		}},
		{"two sends at one instant stay in schedule order", every(ms), []op{
			send(0, 1, 2), send(3, 4, 0), step, step, step, step,
		}},
		{"a timer between two sends ends the run", every(ms), []op{
			send(0, 1, 2), {kind: opTimer, d: ms}, send(3, 4, 1), {kind: opRunUntil, d: ms},
		}},
		{"a zero-delay send joins a run already half popped", every(0), []op{
			send(0, 1, 2), step, send(3, 4), step, step, step,
		}},
		{"a zero-delay send after a run's tail starts another", every(0), []op{
			send(0, 1, 2), step, step, send(3, 4, 0), step,
		}},
		{"links of different delays interleave the fan-out", func(from, to int) time.Duration { return time.Duration(to%3) * ms }, []op{
			send(0), send(1), {kind: opRunUntil, d: ms / 2}, step, send(4), {kind: opRunUntil, d: 3 * ms / 2},
		}},
		{"a deadline between runs", every(ms), []op{
			send(0, 1, 2), {kind: opRunUntil, d: ms / 2}, send(1, 2, 3), {kind: opRunUntil, d: ms / 2},
			step, {kind: opRunUntil, d: ms / 4}, step,
		}},
		{"a crash between two members of a run", every(ms), []op{
			send(0, 1, 2, 3), step, {kind: opCrash, who: 2}, step, step, step,
		}},
		{"a detach between two members of a run", every(ms), []op{
			send(0, 1, 2, 3), step, {kind: opDetach, who: 2}, step, step, send(2, 0, 1), send(0), step, step,
		}},
		{"a scripted crash at the run's instant", every(ms), []op{
			{kind: opAt, d: ms, then: &op{kind: opCrash, who: 3}}, send(0, 2, 3, 4), send(1, 3), {kind: opRunUntil, d: 2 * ms},
		}},
		{"a scripted send at a delivery's instant", every(0), []op{
			send(0, 1, 2), {kind: opAt, then: &op{kind: opSend, who: 4, dests: []int{1, 3}}}, step, step, step, step,
		}},
		{"a cancelled timer at the top past the deadline", every(ms), []op{
			{kind: opTimer, d: 3 * ms}, {kind: opCancel}, send(0, 1), {kind: opRunUntil, d: ms}, {kind: opRunUntil, d: ms},
		}},
		{"a stale cancel reaches no reused event", every(ms), []op{
			{kind: opTimer, d: ms}, step, send(0, 1, 2), {kind: opCancel}, step, step,
		}},
		{"an At in the past runs now", every(ms), []op{
			send(0, 1), {kind: opRunUntil, d: 2 * ms}, {kind: opAt, d: -ms}, send(1, 0), step, step,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newScheduleRun(t, tc.delay).script(tc.ops)
		})
	}
}

// decodeSchedule turns fuzz bytes into link delays (0 to 1.5 ms) and a
// script of up to 64 ops.
func decodeSchedule(data []byte) (func(int, int) time.Duration, []op) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	rng := rand.New(rand.NewSource(int64(next())))
	var delays [scheduleEndpoints][scheduleEndpoints]time.Duration
	for a := range delays {
		for b := range delays[a] {
			delays[a][b] = time.Duration(rng.Intn(4)) * 500 * time.Microsecond
		}
	}
	quarter := 250 * time.Microsecond
	decode := func(kind int) op {
		o := op{kind: opKind(kind % 8), who: next() % scheduleEndpoints}
		switch o.kind {
		case opSend:
			mask := next()
			for d := 0; d < scheduleEndpoints; d++ {
				if mask&(1<<d) != 0 {
					o.dests = append(o.dests, d)
				}
			}
		case opTimer, opRunUntil:
			o.d = time.Duration(next()%9) * quarter
		case opAt:
			o.d = time.Duration(next()%9-2) * quarter
		}
		return o
	}
	var ops []op
	for len(data) > 0 && len(ops) < 64 {
		o := decode(next())
		if o.kind == opAt {
			switch then := decode(next()); then.kind {
			case opSend, opCrash, opDetach:
				o.then = &then
			}
		}
		ops = append(ops, o)
	}
	return func(a, b int) time.Duration { return delays[a][b] }, ops
}

func FuzzSchedule(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0x1e, 0, 1, 0x06, 4, 0, 4, 0, 4, 0, 5, 0, 4})
	f.Add([]byte{7, 0, 2, 0, 1, 0, 3, 3, 1, 0, 4, 0, 6, 2, 4, 0, 7, 1, 5, 0, 8})
	f.Add([]byte{42, 3, 0, 4, 6, 3, 1, 0, 0, 0, 0xff, 4, 0, 2, 0, 4, 0, 5, 3, 4, 0})
	f.Add([]byte{9, 0, 4, 0, 0, 1, 0, 1, 2, 0, 0x0c, 4, 0, 7, 1, 4, 0, 4, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		delay, ops := decodeSchedule(data)
		newScheduleRun(t, delay).script(ops)
	})
}
