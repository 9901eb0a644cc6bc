// Package vslog keeps the books of virtual synchrony (paper §5): which
// casts a member has delivered, and which of them it must still be able
// to forward in a flush because they are not known to be stable. "All
// members log all unstable messages"; MBRSHIP keeps these books, and so
// do FLUSH and VSS, which split its flush off from BMS's view agreement
// (§11), so the three share one mechanism, as NAK and TOTAL share
// internal/reorder. FLUSH and VSS also share the flush exchange itself
// (Exchange), and STABLE and PINWHEEL, which provide the stability
// they trim by, share the ledger that numbers casts and holds the acks
// the matrix is built from (Ledger).
//
// A cast is named by its origin and its number in the origin's stream,
// counted from 1. What is stable is learned from a core.StabilityMatrix:
// STABLE's or PINWHEEL's upcalls carry one to FLUSH and VSS, and MBRSHIP
// fills its own from its gossip. The matrix is positional — a row or
// column is a member's rank in the view it was built over — so a member
// tells the others its column as a count vector, its counts in rank
// order under the view's ID (PushVector), which MBRSHIP's gossip and
// STABLE's alike read in place against the view it names (RaiseVector);
// a trim finds each row's origin in the log by the same binary search a
// log entry is filed by. Delivered and the acks stay keyed by
// identifier: they outlive a view, and ranks do not. A flush forwards a
// whole log in one message, the batch MBRSHIP's forwards and the
// exchange's DONE alike carry: PushBatch writes it and PopBatch checks
// it whole before anything of it is applied.
package vslog

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"horus/internal/core"
	"horus/internal/message"
)

// Delivered is the set of casts delivered, per origin: a contiguous
// prefix, which is all there is while casts arrive in order, and the
// deliveries beyond it — a flush forward can deliver a cast before the
// ones ahead of it — held until the prefix reaches them. The zero value
// is empty.
type Delivered struct {
	prefix map[core.EndpointID]uint64 // contiguous delivered count per origin
	sparse map[core.MsgID]bool        // deliveries beyond the prefix
}

// Has reports whether origin's cast seq was delivered.
func (d *Delivered) Has(origin core.EndpointID, seq uint64) bool {
	return seq <= d.prefix[origin] || len(d.sparse) > 0 && d.sparse[core.MsgID{Origin: origin, Seq: seq}]
}

// Count returns how many of origin's casts were delivered without a
// gap: the prefix, which a delivery in order extends by one.
func (d *Delivered) Count(origin core.EndpointID) uint64 { return d.prefix[origin] }

// Add records that origin's cast seq was delivered. A cast next after
// the prefix extends it, and with it whatever beyond it the extension
// now reaches; one further on waits beyond it. Adding a delivered cast
// changes nothing.
func (d *Delivered) Add(origin core.EndpointID, seq uint64) {
	next := d.prefix[origin] + 1
	switch {
	case seq < next:
		return
	case seq > next:
		if d.sparse == nil {
			d.sparse = make(map[core.MsgID]bool)
		}
		d.sparse[core.MsgID{Origin: origin, Seq: seq}] = true
		return
	}
	for len(d.sparse) > 0 && d.sparse[core.MsgID{Origin: origin, Seq: next + 1}] {
		next++
		delete(d.sparse, core.MsgID{Origin: origin, Seq: next})
	}
	if d.prefix == nil {
		d.prefix = make(map[core.EndpointID]uint64)
	}
	d.prefix[origin] = next
}

// Reset forgets every delivery.
func (d *Delivered) Reset() {
	clear(d.prefix)
	clear(d.sparse)
}

// Log holds the unstable casts a member may have to forward, per
// origin, in the order they were added. A message is held by value and
// filled by AttachClone, so logging costs the log's amortised growth and
// no allocation per message: nothing is copied for a received message,
// the body once for one the application cast. The zero value is empty.
type Log struct {
	origins []origin // oldest origin first
}

type origin struct {
	id      core.EndpointID
	entries []entry
}

type entry struct {
	seq uint64
	msg message.Message
}

// byAge orders endpoints as core.EndpointID.Older does.
func byAge(a, b core.EndpointID) int {
	if c := cmp.Compare(a.Birth, b.Birth); c != 0 {
		return c
	}
	return strings.Compare(a.Site, b.Site)
}

// find returns where origin id's casts are, or would be inserted.
func (l *Log) find(id core.EndpointID) (int, bool) {
	i := sort.Search(len(l.origins), func(k int) bool { return byAge(l.origins[k].id, id) >= 0 })
	return i, i < len(l.origins) && l.origins[i].id == id
}

// Add logs a clone of msg as origin's cast seq.
func (l *Log) Add(id core.EndpointID, seq uint64, msg *message.Message) {
	i, found := l.find(id)
	if !found {
		l.origins = slices.Insert(l.origins, i, origin{id: id})
	}
	o := &l.origins[i]
	o.entries = append(o.entries, entry{seq: seq})
	o.entries[len(o.entries)-1].msg.AttachClone(msg)
}

// Trim drops the casts m proves stable: for each origin, those numbered
// up to the count every member of m has reported. It walks m's rows and
// finds each row's origin in the log; an origin outside m, or with a
// member that has reported nothing, keeps all of its casts.
func (l *Log) Trim(m *core.StabilityMatrix) {
	if m == nil {
		return
	}
	for r, id := range m.Members {
		i, found := l.find(id)
		if stable := m.MinStable(r); found && stable > 0 {
			o := &l.origins[i]
			keep := o.entries[:0]
			for _, e := range o.entries {
				if e.seq > stable {
					keep = append(keep, e)
				}
			}
			o.entries = keep
		}
	}
}

// Len returns how many casts are logged.
func (l *Log) Len() int {
	n := 0
	for _, o := range l.origins {
		n += len(o.entries)
	}
	return n
}

// Each calls fn for every logged cast: origins oldest first, each
// origin's casts in the order they were added — the order a flush
// forwards them in. msg is the log's own copy, to be read, not kept or
// written; fn must not add to the log.
func (l *Log) Each(fn func(origin core.EndpointID, seq uint64, msg *message.Message)) {
	for _, o := range l.origins {
		for i := range o.entries {
			fn(o.id, o.entries[i].seq, &o.entries[i].msg)
		}
	}
}

// Reset lets go of everything logged and of the storage.
func (l *Log) Reset() { *l = Log{} }
