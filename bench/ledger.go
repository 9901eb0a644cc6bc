package main

import "fmt"

// An operation is one expected delivery: a cast × each member that must
// deliver it, the sender included. The ledger decides which operations
// failed. Each receiver's state is touched only from that receiver's
// handler (serialized by its endpoint's executor), so the ledger needs
// no lock on UDP; the shared total-order log is used on netsim only,
// where every handler runs on the one simulation goroutine.

// failures counts failed operations by cause.
type failures struct {
	Missing   int64 // never arrived by the end of the drain
	Duplicate int64 // arrived a second time
	Reordered int64 // arrived out of per-sender FIFO order
	Disagreed int64 // at a position where another member delivered a different cast
	Lost      int64 // LOST_MESSAGE upcalls
	Violation int64 // chaos.CheckAll violations (churn only)
}

func (f failures) total() int64 {
	return f.Missing + f.Duplicate + f.Reordered + f.Disagreed + f.Lost + f.Violation
}

func (f failures) String() string {
	return fmt.Sprintf("missing=%d duplicate=%d reordered=%d disagreed=%d lost=%d violation=%d",
		f.Missing, f.Duplicate, f.Reordered, f.Disagreed, f.Lost, f.Violation)
}

func (f *failures) add(g failures) {
	f.Missing += g.Missing
	f.Duplicate += g.Duplicate
	f.Reordered += g.Reordered
	f.Disagreed += g.Disagreed
	f.Lost += g.Lost
	f.Violation += g.Violation
}

// recvStream is one receiver's view of one sender's cast stream.
type recvStream struct {
	next    uint64              // next sequence number expected
	skipped map[uint64]struct{} // sequence numbers jumped over, still owed
}

// receiver is the per-member delivery state of one group.
type receiver struct {
	streams   []recvStream // by sender
	count     int64        // deliveries, duplicates included
	hash      uint64       // FNV-1a over the delivered tag sequence
	dup, reo  int64
	disagreed int64
	lost      int64
}

// groupLedger checks one group's deliveries.
type groupLedger struct {
	members int
	sent    []uint64   // casts issued, by sender (written by the generator)
	recv    []receiver // by member
	// order is the group's delivery sequence as first observed; nil
	// unless total order is checked. Every member's k-th delivery must
	// equal order[k].
	order      []uint64
	checkOrder bool
	// noSelf: a sender is not a receiver of its own casts (the fabric
	// does not loop them back), so members-1 deliveries are owed per cast.
	noSelf bool
}

func newGroupLedger(members int, checkOrder bool) *groupLedger {
	g := &groupLedger{members: members, sent: make([]uint64, members),
		recv: make([]receiver, members), checkOrder: checkOrder}
	for i := range g.recv {
		g.recv[i].streams = make([]recvStream, members)
		for s := range g.recv[i].streams {
			g.recv[i].streams[s].next = 1
		}
		g.recv[i].hash = 14695981039346656037
	}
	return g
}

// cast assigns the sender's next sequence number (1-based).
func (g *groupLedger) cast(sender int) uint64 {
	g.sent[sender]++
	return g.sent[sender]
}

// deliver records that member got cast (sender, seq).
func (g *groupLedger) deliver(member, sender int, seq uint64) {
	r := &g.recv[member]
	tag := castTag(sender, seq)
	r.hash = (r.hash ^ tag) * 1099511628211
	if g.checkOrder {
		k := r.count
		switch {
		case k < int64(len(g.order)):
			if g.order[k] != tag {
				r.disagreed++
			}
		case k == int64(len(g.order)):
			g.order = append(g.order, tag)
		}
	}
	r.count++
	st := &r.streams[sender]
	switch {
	case seq == st.next:
		st.next++
	case seq > st.next:
		// Arrived ahead of its predecessors: out of FIFO order.
		if st.skipped == nil {
			st.skipped = make(map[uint64]struct{})
		}
		for s := st.next; s < seq; s++ {
			st.skipped[s] = struct{}{}
		}
		st.next = seq + 1
		r.reo++
	default:
		if _, owed := st.skipped[seq]; owed {
			delete(st.skipped, seq) // arrived, but after a successor
			r.reo++
		} else {
			r.dup++
		}
	}
}

// lostMessage records a LOST_MESSAGE upcall about another member's
// stream. Reports about the receiver's own loopback stream are not
// passed in: above a membership layer the local copy was delivered at
// cast time, so they name no operation (README, known defects).
func (g *groupLedger) lostMessage(member int) { g.recv[member].lost++ }

// finish totals the group's operations once the drain is over.
func (g *groupLedger) finish() (attempted int64, f failures) {
	var casts uint64
	for _, n := range g.sent {
		casts += n
	}
	owed := g.members
	if g.noSelf {
		owed--
	}
	attempted = int64(casts) * int64(owed)
	for m := range g.recv {
		r := &g.recv[m]
		f.Duplicate += r.dup
		f.Reordered += r.reo
		f.Disagreed += r.disagreed
		f.Lost += r.lost
		for s := range r.streams {
			if g.noSelf && s == m {
				continue
			}
			st := &r.streams[s]
			f.Missing += int64(len(st.skipped))
			if g.sent[s]+1 > st.next {
				f.Missing += int64(g.sent[s] + 1 - st.next)
			}
		}
	}
	return attempted, f
}

// castTag identifies a cast within its group; never 0.
func castTag(sender int, seq uint64) uint64 { return uint64(sender+1)<<40 | seq }
