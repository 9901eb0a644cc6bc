// Package flush implements the FLUSH layer of Table 3: it upgrades the
// virtually *semi*-synchronous delivery of a BMS layer below it
// (property P8) to full virtual synchrony (P9) by redistributing
// unstable messages during view changes. BMS+FLUSH decomposes the
// monolithic MBRSHIP layer, which is exactly the modularity §11 of the
// paper advertises ("in the past, our work on Isis was clouded by an
// architecture in which protocols for group communication were mixed
// with protocols for membership agreement").
//
// Operation: the layer stamps and logs every multicast it delivers.
// When BMS reports a flush (the FLUSH upcall), every member multicasts
// its unstable log to the surviving members, follows it with a DONE
// marker, and sends the flush_ok downcall only after collecting DONE
// from every survivor. FIFO channels below guarantee that a member's
// forwarded messages precede its DONE, so when everyone has consented,
// everyone has everything — and BMS may install the view.
//
// If a stability layer sits below (property P14), STABLE upcalls trim
// the log so only genuinely unstable messages are redistributed.
//
// Properties: requires P3, P4, P8, P10, P11, P12, P14, P15;
// provides P9.
package flush

import (
	"fmt"
	"sort"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/wire"
)

// Wire kinds.
const (
	kData = 1 // stamped multicast {seq}
	kSend = 2 // subset send pass-through
	kFwd  = 3 // unstable redistribution {origin, seq, wire}
	kDone = 4 // this member's redistribution is complete {gen}
)

type logEntry struct {
	seq uint64
	msg *message.Message
}

// Flush is one FLUSH layer instance.
type Flush struct {
	core.Base

	view    *core.View
	sendSeq uint64

	prefix map[core.EndpointID]uint64 // contiguous delivered per origin
	sparse map[core.MsgID]bool        // deliveries beyond the prefix
	log    map[core.EndpointID][]logEntry

	flushing  bool
	gen       uint64 // flush generation within this view
	failed    map[core.EndpointID]bool
	doneFrom  map[core.EndpointID]uint64 // highest DONE generation per member
	consented bool

	stats Stats
}

// Stats counts FLUSH activity.
type Stats struct {
	FwdsSent      int
	FwdsDelivered int
	Flushes       int
}

// New returns a FLUSH layer.
func New() core.Layer { return &Flush{} }

// Name implements core.Layer.
func (f *Flush) Name() string { return "FLUSH" }

// Stats returns a snapshot of the layer's counters.
func (f *Flush) Stats() Stats { return f.stats }

// Init implements core.Layer.
func (f *Flush) Init(c *core.Context) error {
	if err := f.Base.Init(c); err != nil {
		return err
	}
	f.prefix = make(map[core.EndpointID]uint64)
	f.sparse = make(map[core.MsgID]bool)
	f.log = make(map[core.EndpointID][]logEntry)
	f.failed = make(map[core.EndpointID]bool)
	f.doneFrom = make(map[core.EndpointID]uint64)
	return nil
}

// Down implements core.Layer.
func (f *Flush) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		f.sendSeq++
		ev.Msg.PushUint64(f.sendSeq)
		ev.Msg.PushUint8(kData)
		f.Ctx.Down(ev)
	case core.DSend:
		ev.Msg.PushUint8(kSend)
		f.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("FLUSH: logged=%d flushes=%d fwds=%d",
			f.logSize(), f.stats.Flushes, f.stats.FwdsSent))
		f.Ctx.Down(ev)
	default:
		f.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (f *Flush) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		kind := ev.Msg.PopUint8()
		switch kind {
		case kData:
			f.receiveData(ev)
		}
	case core.USend:
		kind := ev.Msg.PopUint8()
		switch kind {
		case kSend:
			f.Ctx.Up(ev)
		case kFwd:
			f.receiveFwd(ev)
		case kDone:
			f.receiveDone(ev)
		}
	case core.UFlush:
		f.startFlush(ev)
		f.Ctx.Up(ev)
	case core.UView:
		f.applyView(ev.View)
		f.Ctx.Up(ev)
	case core.UStable:
		f.trim(ev.Stability)
		f.Ctx.Up(ev)
	default:
		f.Ctx.Up(ev)
	}
}

// receiveData delivers a stamped multicast once.
func (f *Flush) receiveData(ev *core.Event) {
	seq := ev.Msg.PopUint64()
	if f.delivered(ev.Source, seq) {
		return
	}
	f.record(ev.Source, seq)
	f.log[ev.Source] = append(f.log[ev.Source], logEntry{seq: seq, msg: ev.Msg.Clone()})
	f.Ctx.Up(ev)
}

func (f *Flush) delivered(origin core.EndpointID, seq uint64) bool {
	return seq <= f.prefix[origin] || f.sparse[core.MsgID{Origin: origin, Seq: seq}]
}

func (f *Flush) record(origin core.EndpointID, seq uint64) {
	f.sparse[core.MsgID{Origin: origin, Seq: seq}] = true
	for f.sparse[core.MsgID{Origin: origin, Seq: f.prefix[origin] + 1}] {
		f.prefix[origin]++
		delete(f.sparse, core.MsgID{Origin: origin, Seq: f.prefix[origin]})
	}
}

// startFlush redistributes the unstable log and announces completion.
// Wider failure sets restart the exchange with a higher generation.
func (f *Flush) startFlush(ev *core.Event) {
	f.stats.Flushes++
	f.flushing = true
	f.consented = false
	f.gen++
	for _, e := range ev.Failed {
		f.failed[e] = true
	}
	dests := f.survivorsExceptSelf()
	origins := make([]core.EndpointID, 0, len(f.log))
	for o := range f.log {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i].Older(origins[j]) })
	for _, origin := range origins {
		for _, entry := range f.log[origin] {
			f.stats.FwdsSent++
			if len(dests) > 0 {
				fwd := core.NewSendToAll(dests, 0)
				fwd.Msg.SetBody(entry.msg.Marshal())
				fwd.Msg.PushUint64(entry.seq)
				wire.PushEndpointID(fwd.Msg, origin)
				fwd.Msg.PushUint8(kFwd)
				f.Ctx.Down(fwd)
			}
		}
	}
	if len(dests) > 0 {
		done := core.NewSendToAll(dests, 0)
		done.Msg.PushUint64(f.gen)
		done.Msg.PushUint8(kDone)
		f.Ctx.Down(done)
	}
	f.doneFrom[f.Ctx.Self()] = f.gen
	f.checkComplete()
}

// receiveFwd delivers a redistributed message if it is new.
func (f *Flush) receiveFwd(ev *core.Event) {
	origin := wire.PopEndpointID(ev.Msg)
	seq := ev.Msg.PopUint64()
	if f.delivered(origin, seq) {
		return
	}
	inner, err := message.Unmarshal(ev.Msg.Body())
	if err != nil {
		return
	}
	f.record(origin, seq)
	f.log[origin] = append(f.log[origin], logEntry{seq: seq, msg: inner.Clone()})
	f.stats.FwdsDelivered++
	f.Ctx.Up(&core.Event{Type: core.UCast, Msg: inner, Source: origin})
}

// receiveDone collects redistribution completions.
func (f *Flush) receiveDone(ev *core.Event) {
	gen := ev.Msg.PopUint64()
	if gen > f.doneFrom[ev.Source] {
		f.doneFrom[ev.Source] = gen
	}
	f.checkComplete()
}

// checkComplete consents to the flush once every survivor's DONE has
// arrived — by FIFO, after every survivor's forwards.
func (f *Flush) checkComplete() {
	if !f.flushing || f.consented || f.view == nil {
		return
	}
	for _, m := range f.view.Members {
		if f.failed[m] {
			continue
		}
		if f.doneFrom[m] == 0 {
			return
		}
	}
	f.consented = true
	f.Ctx.Down(&core.Event{Type: core.DFlushOK})
}

func (f *Flush) survivorsExceptSelf() []core.EndpointID {
	if f.view == nil {
		return nil
	}
	out := make([]core.EndpointID, 0, len(f.view.Members))
	for _, m := range f.view.Members {
		if m != f.Ctx.Self() && !f.failed[m] {
			out = append(out, m)
		}
	}
	return out
}

// trim drops log entries the stability matrix proves fully delivered.
func (f *Flush) trim(m *core.StabilityMatrix) {
	if m == nil {
		return
	}
	for origin, entries := range f.log {
		stable := m.MinStable(origin)
		if stable == 0 {
			continue
		}
		keep := entries[:0]
		for _, e := range entries {
			if e.seq > stable {
				keep = append(keep, e)
			}
		}
		f.log[origin] = keep
	}
}

// applyView resets flush state; message identities are continuous
// across views, so delivery dedup state persists.
func (f *Flush) applyView(v *core.View) {
	f.view = v
	f.flushing = false
	f.consented = false
	f.gen = 0
	f.failed = make(map[core.EndpointID]bool)
	f.doneFrom = make(map[core.EndpointID]uint64)
	f.log = make(map[core.EndpointID][]logEntry)
}

func (f *Flush) logSize() int {
	n := 0
	for _, entries := range f.log {
		n += len(entries)
	}
	return n
}
