package core

import "time"

// Timer is a layer timer: a value the layer keeps in its own state,
// bound once to a method of that state, then armed with Reset and
// disarmed with Stop as often as the protocol needs. Its rule:
//
//   - At most one fire is outstanding. Reset supersedes the deadline
//     armed before it, and Stop withdraws it.
//   - A superseded fire is dropped, even one the transport had already
//     queued on the endpoint: the run checks that the Timer is still
//     armed and that its deadline has come.
//   - The transport is armed lazily. The Timer keeps the instant of the
//     arm it has outstanding, and Stop leaves that arm in place. Reset
//     calls SetTimer only when no arm is outstanding or the new deadline
//     comes before it; otherwise the outstanding arm fires first and its
//     run re-arms for what is left. A Stop and a Reset to a later
//     deadline, as a retry timer makes on every request, cost the
//     transport nothing.
//   - A Timer of a destroyed stack never runs (a segment's: of a
//     detached segment, or of a segment whose host's stack is
//     destroyed). That is the only way a layer's timers stop at
//     teardown.
//
// The callback is a method expression on the owner, such as
// (*Total).retryRequest, so binding allocates nothing. Neither does
// arming or firing in core: the Timer is itself the event-queue entry,
// and the callback it hands the transport is a method value made on
// its first arm and kept. What the transport's SetTimer costs is the
// transport's own, paid once per arm: on netsim, one allocation for
// every arm that fires.
//
// A Timer is used only on its endpoint's event queue, where layer code
// runs.
type Timer[L any] struct {
	ctx    *Context
	owner  *L
	fn     func(*L)
	fire   func()        // expire, bound on the first arm
	cancel func()        // the transport's cancel for the outstanding arm, if any
	at     time.Duration // the instant of the outstanding arm
	due    time.Duration
	armed  bool
}

// Bind ties the Timer to the layer's context and to fn, which runs
// with owner when the Timer fires. Call it once, before the first
// Reset; a layer usually binds its timers in Init.
func (t *Timer[L]) Bind(c *Context, owner *L, fn func(*L)) {
	t.ctx, t.owner, t.fn = c, owner, fn
}

// Reset arms the Timer to fire d from now, superseding any deadline it
// had. Reset from inside the callback re-arms it, and Reset(0) fires at
// the same instant: after the work already queued, unless an arm for
// that instant was already outstanding, whose place in the queue the
// fire then takes.
func (t *Timer[L]) Reset(d time.Duration) {
	tr := t.ctx.stack.group.ep.transport
	t.due = tr.Now() + d
	t.armed = true
	if t.cancel != nil {
		if t.at <= t.due {
			return // the outstanding arm fires first and re-arms
		}
		t.cancel()
	}
	t.arm(tr, d)
}

// arm asks the transport for a fire d from now.
func (t *Timer[L]) arm(tr Transport, d time.Duration) {
	if t.fire == nil {
		t.fire = t.expire
	}
	t.at = t.due
	t.cancel = tr.SetTimer(d, t.fire)
}

// Stop disarms the Timer. A fire already under way is dropped, and so
// is the outstanding arm's, when it comes.
func (t *Timer[L]) Stop() { t.armed = false }

// Armed reports whether a fire is outstanding: the Timer has been
// Reset and has neither fired nor been stopped since.
func (t *Timer[L]) Armed() bool { return t.armed }

// expire is the callback the transport runs, on a goroutine of its
// own on wall-clock transports: it queues the Timer on the endpoint.
func (t *Timer[L]) expire() { t.ctx.stack.group.ep.exec.enqueue(t) }

// run is the Timer's turn on the event queue.
func (t *Timer[L]) run() {
	now := t.ctx.Now()
	if t.cancel != nil && now >= t.at {
		t.cancel = nil // the outstanding arm has fired
	}
	if !t.armed || !t.ctx.stack.live() {
		return
	}
	if now < t.due {
		if t.cancel == nil {
			t.arm(t.ctx.stack.group.ep.transport, t.due-now)
		}
		return
	}
	t.armed = false
	t.fn(t.owner)
}
