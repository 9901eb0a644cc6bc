// Package wire provides header encodings shared by protocol layers:
// endpoint identifiers, identifier lists, views, and count vectors.
// Each Push function has a matching Pop; layers compose them LIFO on
// the message header stack.
//
// An endpoint identifier travels as one varint, birth<<1|full, and,
// when full is 1, its site. The sender drops the site whenever its own
// transport names the identifier by its birth (core.Directory): the
// fabric that assigned the birth supplies the site at the receiver, so
// an identifier with a birth below 64 takes one byte. A transport that
// names nothing sends every identifier whole. Whatever the encoding,
// a pop returns the full core.EndpointID value, so identifiers compare,
// key maps and order views exactly as before they crossed the wire.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"horus/internal/core"
	"horus/internal/message"
)

// fullBit marks an identifier word whose site follows it.
const fullBit = 1

// word returns the varint an identifier travels as: its birth and
// whether its site follows, which it does unless dir names id by its
// birth. A birth of 2^63 or more has no room for the flag; no fabric
// assigns one (core.EndpointID.Birth), so meeting one is a program bug.
func word(id core.EndpointID, dir core.Directory) uint64 {
	if id.Birth > math.MaxUint64>>1 {
		panic(fmt.Sprintf("wire: birth of %v is 2^63 or more", id))
	}
	if dir != nil {
		if named, ok := dir.Named(id.Birth); ok && named == id {
			return id.Birth << 1
		}
	}
	return id.Birth<<1 | fullBit
}

// IDLen returns the bytes PushEndpointID pushes for id through dir.
func IDLen(id core.EndpointID, dir core.Directory) int {
	w := word(id, dir)
	n := message.UintLen(w)
	if w&fullBit != 0 {
		n += message.UintLen(uint64(len(id.Site))) + len(id.Site)
	}
	return n
}

// AppendEndpointID appends id to dst as PushEndpointID pushes it, for
// an identifier written into bytes other than a header stack (a flush
// batch's body): the word, then the site if it travels.
func AppendEndpointID(dst []byte, id core.EndpointID, dir core.Directory) []byte {
	w := word(id, dir)
	dst = binary.AppendUvarint(dst, w)
	if w&fullBit != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(id.Site)))
		dst = append(dst, id.Site...)
	}
	return dst
}

// PushEndpointID pushes id onto m's header stack: its birth alone when
// dir, the sending endpoint's transport, names it, else birth and site.
func PushEndpointID(m *message.Message, id core.EndpointID, dir core.Directory) {
	w := word(id, dir)
	if w&fullBit != 0 {
		m.PushString(id.Site)
	}
	m.PushUint(w)
}

// PopEndpointID pops an identifier pushed by PushEndpointID and
// resolves it (Resolve): an element of known is returned as it is, so
// its Site string is reused and only an identifier outside known and
// the directory costs an allocation. COM resolves every packet's
// source against its view this way. A birth without its site that
// neither known nor dir names panics with core.Unnamed, which the
// endpoint counts as a malformed packet.
func PopEndpointID(m *message.Message, known []core.EndpointID, dir core.Directory) core.EndpointID {
	w := m.PopUint()
	var site []byte
	if w&fullBit != 0 {
		site = m.PopBytes()
	}
	id, ok := Resolve(w, site, known, dir)
	if !ok {
		panic(core.Unnamed{Birth: w >> 1})
	}
	return id
}

// Resolve turns an identifier's word and site, read from a header
// stack or from other bytes, into the identifier they name. A word
// without its site is a birth: the element of known with that birth,
// else the identifier dir, the receiving endpoint's transport, names
// by it; ok is false if neither names one. A word with its site is the
// element of known with that birth and site, else a new identifier.
func Resolve(w uint64, site []byte, known []core.EndpointID, dir core.Directory) (id core.EndpointID, ok bool) {
	birth := w >> 1
	if w&fullBit == 0 {
		for _, k := range known {
			if k.Birth == birth {
				return k, true
			}
		}
		if dir == nil {
			return core.EndpointID{}, false
		}
		return dir.Named(birth)
	}
	for _, k := range known {
		if k.Birth == birth && k.Site == string(site) {
			return k, true
		}
	}
	return core.EndpointID{Site: string(site), Birth: birth}, true
}

// IDListLen returns the header bytes PushIDList pushes for ids through
// dir. With CountsLen it lets a layer size the header storage of a
// message that carries a vector before it pushes
// (core.Context.NewSendTo).
func IDListLen(ids []core.EndpointID, dir core.Directory) int {
	n := message.UintLen(uint64(len(ids)))
	for _, id := range ids {
		n += IDLen(id, dir)
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

// PushIDList pushes a list of endpoint identifiers, each as
// PushEndpointID pushes it.
func PushIDList(m *message.Message, ids []core.EndpointID, dir core.Directory) {
	for i := len(ids) - 1; i >= 0; i-- {
		PushEndpointID(m, ids[i], dir)
	}
	m.PushUint(uint64(len(ids)))
}

// The fewest header bytes a list element can take: an identifier is one
// byte when its birth is below 64 and its site stays behind, and so is
// a count below 128. popCount refuses a count the remaining headers
// cannot hold at this size.
const (
	minIDLen    = 1
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

// PopIDList pops a list pushed by PushIDList, resolving each identifier
// against known and dir as PopEndpointID does: a list of view members —
// a status vector's sources, a token's waiting queue — costs the slice
// and no site strings.
func PopIDList(m *message.Message, known []core.EndpointID, dir core.Directory) []core.EndpointID {
	n := popCount(m, minIDLen)
	ids := make([]core.EndpointID, n)
	for i := 0; i < n; i++ {
		ids[i] = PopEndpointID(m, known, dir)
	}
	return ids
}

// PushViewID pushes a view identifier, its coordinator as
// PushEndpointID pushes it.
func PushViewID(m *message.Message, id core.ViewID, dir core.Directory) {
	PushEndpointID(m, id.Coord, dir)
	m.PushUint(id.Seq)
}

// PopViewID pops a view identifier pushed by PushViewID, resolving its
// coordinator against known and dir as PopEndpointID does: a tag
// naming the receiver's own view, or one a member of it installed,
// costs no site string.
func PopViewID(m *message.Message, known []core.EndpointID, dir core.Directory) core.ViewID {
	seq := m.PopUint()
	return core.ViewID{Seq: seq, Coord: PopEndpointID(m, known, dir)}
}

// PushView pushes a complete view (identifier, group, members).
func PushView(m *message.Message, v *core.View, dir core.Directory) {
	PushIDList(m, v.Members, dir)
	m.PushString(string(v.Group))
	PushViewID(m, v.ID, dir)
}

// PopView pops a view pushed by PushView, resolving its identifiers
// against known and dir as PopEndpointID does.
func PopView(m *message.Message, known []core.EndpointID, dir core.Directory) *core.View {
	id := PopViewID(m, known, dir)
	group := core.GroupAddr(m.PopString())
	members := PopIDList(m, known, dir)
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
