// Package wire provides header encodings shared by protocol layers:
// endpoint identifiers, identifier lists, views, and count vectors.
// Each Push function has a matching Pop; layers compose them LIFO on
// the message header stack.
package wire

import (
	"encoding/binary"

	"horus/internal/core"
	"horus/internal/message"
)

// PushEndpointID pushes id onto m's header stack.
func PushEndpointID(m *message.Message, id core.EndpointID) {
	m.PushString(id.Site)
	m.PushUint64(id.Birth)
}

// PopEndpointID pops an identifier pushed by PushEndpointID.
func PopEndpointID(m *message.Message) core.EndpointID { return PopKnownEndpointID(m, nil) }

// PopKnownEndpointID pops an identifier pushed by PushEndpointID and,
// when it equals an element of known, returns that element: the bytes
// are compared in place and the Site string already held is reused, so
// only an identifier outside known costs an allocation. COM resolves
// every packet's source against its view this way.
func PopKnownEndpointID(m *message.Message, known []core.EndpointID) core.EndpointID {
	birth := m.PopUint64()
	return resolve(birth, m.PopBytes(), known)
}

// resolve returns the element of known with this birth and site, or a
// new identifier.
func resolve(birth uint64, site []byte, known []core.EndpointID) core.EndpointID {
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
	n := 4
	for _, id := range ids {
		n += 8 + 4 + len(id.Site)
	}
	return n
}

// CountsLen returns the header bytes PushCounts pushes for n counters.
func CountsLen(n int) int { return 4 + 8*n }

// PushIDList pushes a list of endpoint identifiers.
func PushIDList(m *message.Message, ids []core.EndpointID) {
	for i := len(ids) - 1; i >= 0; i-- {
		PushEndpointID(m, ids[i])
	}
	m.PushUint32(uint32(len(ids)))
}

// popCount pops the element count of a list whose elements take at
// least each header bytes. A count the remaining headers cannot hold is
// line damage: it panics with message.ShortRead, as popping past the
// end does — the endpoint drops the packet and counts it — before the
// count sizes an allocation.
func popCount(m *message.Message, each int) int {
	n := int(m.PopUint32())
	if n > m.HeaderLen()/each {
		panic(message.ShortRead{Want: n * each, Have: m.HeaderLen()})
	}
	return n
}

// PopIDList pops a list pushed by PushIDList.
func PopIDList(m *message.Message) []core.EndpointID { return PopKnownIDList(m, nil) }

// PopKnownIDList pops a list pushed by PushIDList, resolving each
// identifier against known as PopKnownEndpointID does: a list of view
// members — a status vector's sources, a token's waiting queue — costs
// the slice and no site strings.
func PopKnownIDList(m *message.Message, known []core.EndpointID) []core.EndpointID {
	n := popCount(m, 8+4) // birth and site length
	ids := make([]core.EndpointID, n)
	for i := 0; i < n; i++ {
		ids[i] = PopKnownEndpointID(m, known)
	}
	return ids
}

// PushViewID pushes a view identifier.
func PushViewID(m *message.Message, id core.ViewID) {
	PushEndpointID(m, id.Coord)
	m.PushUint64(id.Seq)
}

// PopViewID pops a view identifier pushed by PushViewID.
func PopViewID(m *message.Message) core.ViewID {
	seq := m.PopUint64()
	coord := PopEndpointID(m)
	return core.ViewID{Seq: seq, Coord: coord}
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
		m.PushUint64(counts[i])
	}
	m.PushUint32(uint32(len(counts)))
}

// PopCounts pops a vector pushed by PushCounts.
func PopCounts(m *message.Message) []uint64 {
	n := popCount(m, 8)
	counts := make([]uint64, n)
	for i := 0; i < n; i++ {
		counts[i] = m.PopUint64()
	}
	return counts
}

// PopPairs pops an identifier list and the count vector underneath it —
// what PushCounts then PushIDList pushed: a status or gossip vector —
// and calls each with every identifier and its count. Both are read
// where they lie, identifiers resolved against known as
// PopKnownEndpointID resolves them, so a vector over view members
// allocates nothing. When the two lengths differ it calls nothing and
// returns false; everything has been popped either way.
func PopPairs(m *message.Message, known []core.EndpointID, each func(id core.EndpointID, count uint64)) bool {
	n := popCount(m, 8+4)
	ids := m.Header() // the pops below move no bytes, so this stays readable
	for i := 0; i < n; i++ {
		m.Pop(8)
		m.PopBytes()
	}
	counts := m.Pop(8 * popCount(m, 8))
	if len(counts) != 8*n {
		return false
	}
	for ; len(counts) > 0; counts = counts[8:] {
		site := ids[12 : 12+binary.BigEndian.Uint32(ids[8:])]
		each(resolve(binary.BigEndian.Uint64(ids), site, known), binary.BigEndian.Uint64(counts))
		ids = ids[12+len(site):]
	}
	return true
}
