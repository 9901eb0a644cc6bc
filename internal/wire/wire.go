// Package wire provides header encodings shared by protocol layers:
// endpoint identifiers, identifier lists, views, and count vectors.
// Each Push function has a matching Pop; layers compose them LIFO on
// the message header stack.
package wire

import (
	"math"

	"horus/internal/core"
	"horus/internal/message"
)

// PushEndpointID pushes id onto m's header stack.
func PushEndpointID(m *message.Message, id core.EndpointID) {
	m.PushString(id.Site)
	m.PushUint(id.Birth)
}

// PopEndpointID pops an identifier pushed by PushEndpointID.
func PopEndpointID(m *message.Message) core.EndpointID { return PopKnownEndpointID(m, nil) }

// PopKnownEndpointID pops an identifier pushed by PushEndpointID and,
// when it equals an element of known, returns that element: the bytes
// are compared in place and the Site string already held is reused, so
// only an identifier outside known costs an allocation. COM resolves
// every packet's source against its view this way.
func PopKnownEndpointID(m *message.Message, known []core.EndpointID) core.EndpointID {
	birth := m.PopUint()
	return Resolve(birth, m.PopBytes(), known)
}

// Resolve returns the element of known with this birth and site, or a
// new identifier: the rule PopKnownEndpointID applies, for an
// identifier read from bytes other than a header stack.
func Resolve(birth uint64, site []byte, known []core.EndpointID) core.EndpointID {
	for _, k := range known {
		if k.Birth == birth && k.Site == string(site) {
			return k
		}
	}
	return core.EndpointID{Site: string(site), Birth: birth}
}

// IDListLen returns the header bytes PushIDList pushes for ids. With
// CountsLen it lets a layer size the storage of a message that carries
// a vector before it pushes (core.NewSendTo).
func IDListLen(ids []core.EndpointID) int {
	n := message.UintLen(uint64(len(ids)))
	for _, id := range ids {
		n += message.UintLen(id.Birth) + message.UintLen(uint64(len(id.Site))) + len(id.Site)
	}
	return n
}

// CountsLen returns the header bytes PushCounts pushes for counts.
func CountsLen(counts []uint64) int {
	n := message.UintLen(uint64(len(counts)))
	for _, c := range counts {
		n += message.UintLen(c)
	}
	return n
}

// PushIDList pushes a list of endpoint identifiers.
func PushIDList(m *message.Message, ids []core.EndpointID) {
	for i := len(ids) - 1; i >= 0; i-- {
		PushEndpointID(m, ids[i])
	}
	m.PushUint(uint64(len(ids)))
}

// The fewest header bytes a list element can take: an identifier is a
// birth and a site length of a byte each when both are below 128 (an
// empty site), a count one byte. popCount refuses a count the remaining
// headers cannot hold at this size.
const (
	minIDLen    = 2
	minCountLen = 1
)

// popCount pops the element count of a list whose elements take at
// least each header bytes. A count the remaining headers cannot hold is
// line damage: it panics with message.ShortRead, as popping past the
// end does — the endpoint drops the packet and counts it — before the
// count becomes an int or sizes an allocation.
func popCount(m *message.Message, each int) int {
	n := m.PopUint()
	if n > uint64(m.HeaderLen()/each) {
		panic(message.ShortRead{Want: int(min(n, math.MaxInt32)) * each, Have: m.HeaderLen()})
	}
	return int(n)
}

// PopIDList pops a list pushed by PushIDList.
func PopIDList(m *message.Message) []core.EndpointID { return PopKnownIDList(m, nil) }

// PopKnownIDList pops a list pushed by PushIDList, resolving each
// identifier against known as PopKnownEndpointID does: a list of view
// members — a status vector's sources, a token's waiting queue — costs
// the slice and no site strings.
func PopKnownIDList(m *message.Message, known []core.EndpointID) []core.EndpointID {
	n := popCount(m, minIDLen)
	ids := make([]core.EndpointID, n)
	for i := 0; i < n; i++ {
		ids[i] = PopKnownEndpointID(m, known)
	}
	return ids
}

// PushViewID pushes a view identifier.
func PushViewID(m *message.Message, id core.ViewID) {
	PushEndpointID(m, id.Coord)
	m.PushUint(id.Seq)
}

// PopViewID pops a view identifier pushed by PushViewID.
func PopViewID(m *message.Message) core.ViewID { return PopKnownViewID(m, nil) }

// PopKnownViewID pops a view identifier pushed by PushViewID, resolving
// its coordinator against known as PopKnownEndpointID does: a tag naming
// the receiver's own view, or one a member of it installed, costs no
// site string.
func PopKnownViewID(m *message.Message, known []core.EndpointID) core.ViewID {
	seq := m.PopUint()
	return core.ViewID{Seq: seq, Coord: PopKnownEndpointID(m, known)}
}

// PushView pushes a complete view (identifier, group, members).
func PushView(m *message.Message, v *core.View) {
	PushIDList(m, v.Members)
	m.PushString(string(v.Group))
	PushViewID(m, v.ID)
}

// PopView pops a view pushed by PushView.
func PopView(m *message.Message) *core.View {
	id := PopViewID(m)
	group := core.GroupAddr(m.PopString())
	members := PopIDList(m)
	return &core.View{ID: id, Group: group, Members: members}
}

// PushCounts pushes a vector of counters.
func PushCounts(m *message.Message, counts []uint64) {
	for i := len(counts) - 1; i >= 0; i-- {
		m.PushUint(counts[i])
	}
	m.PushUint(uint64(len(counts)))
}

// PopCounts pops a vector pushed by PushCounts.
func PopCounts(m *message.Message) []uint64 {
	n := popCount(m, minCountLen)
	counts := make([]uint64, n)
	for i := 0; i < n; i++ {
		counts[i] = m.PopUint()
	}
	return counts
}
