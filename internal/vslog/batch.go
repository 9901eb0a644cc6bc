package vslog

import (
	"encoding/binary"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/wire"
)

// A flush forwards a member's whole log in one message: the batch. Its
// entry count rides on the header stack (PushBatch), and the body holds
// the entries in the order Log.Each visits them, each
//
//	origin, seq, image length, image
//
// with the origin as wire.AppendEndpointID writes it, the integers as
// message.PushUint encodes them and the image the logged message's wire
// image (message.AppendWire). MBRSHIP's forwards and the exchange's
// DONE carry one, and both read it with PopBatch.

// minEntryLen is the fewest body bytes an entry can take: a byte for an
// origin without its site and for each integer, and an image that is a
// header length of 0 alone.
const minEntryLen = 4

// PushBatch makes the entries of l m's body, copying each image once,
// into the one buffer it allocates, and pushes their count. Each origin
// is written through dir, the sending endpoint's transport, as
// wire.PushEndpointID pushes one. It returns the count; an empty log
// leaves the body alone and allocates nothing. The body is frozen:
// nothing writes it again, so a layer below that retains the message
// shares it.
func PushBatch(m *message.Message, l *Log, dir core.Directory) int {
	size, n := 0, 0
	for _, o := range l.origins {
		id := wire.IDLen(o.id, dir)
		for i := range o.entries {
			e := &o.entries[i]
			img := e.msg.WireLen()
			size += id + message.UintLen(e.seq) + message.UintLen(uint64(img)) + img
		}
		n += len(o.entries)
	}
	if n > 0 {
		body := make([]byte, 0, size)
		for _, o := range l.origins {
			for i := range o.entries {
				e := &o.entries[i]
				body = wire.AppendEndpointID(body, o.id, dir)
				body = binary.AppendUvarint(body, e.seq)
				body = binary.AppendUvarint(body, uint64(e.msg.WireLen()))
				body = e.msg.AppendWire(body)
			}
		}
		m.SetSharedBody(body)
	}
	m.PushUint(uint64(n))
	return n
}

// Batch is a batch PopBatch has read and checked: n well-formed entries
// in body, nothing behind the last of them, and every origin named by
// known or dir.
type Batch struct {
	n     int
	body  []byte
	known []core.EndpointID
	dir   core.Directory
}

// PopBatch pops the count PushBatch pushed and checks m's body against
// it, entry by entry, before anything is applied: a body that ends
// inside an entry, a count beyond the entries present, a length that
// runs past the end, an origin that neither known nor dir, the
// receiving endpoint's transport, names (wire.Resolve), an image that
// is not a message's wire image or bytes behind the last entry refuse
// the whole batch (ok is false). The batch views the body and keeps
// known, which the caller does not write again; it allocates nothing.
func PopBatch(m *message.Message, known []core.EndpointID, dir core.Directory) (b Batch, ok bool) {
	count, body := m.PopUint(), m.Body()
	if count > uint64(len(body)/minEntryLen) {
		return Batch{}, false
	}
	r := reader{rest: body}
	for range count {
		if w, _ := r.origin(); r.failed || w&1 == 0 && !named(w, known, dir) {
			return Batch{}, false
		}
		r.uint()
		var msg message.Message
		if img := r.bytes(); r.failed || msg.Attach(img) != nil {
			return Batch{}, false
		}
	}
	if len(r.rest) != 0 {
		return Batch{}, false
	}
	return Batch{n: int(count), body: body, known: known, dir: dir}, true
}

// Len returns how many entries the batch holds.
func (b Batch) Len() int { return b.n }

// Each calls fn for every entry in order: its origin, resolved against
// the list and directory PopBatch checked it against, as
// wire.PopEndpointID resolves one, its number in the origin's stream
// and its image, a view of the batch that is read-only and, like the
// message it was popped from, safe to keep. Every image is a wire image
// message.Unmarshal reads.
func (b Batch) Each(fn func(origin core.EndpointID, seq uint64, image []byte)) {
	r := reader{rest: b.body}
	for range b.n {
		w, site := r.origin()
		origin, _ := wire.Resolve(w, site, b.known, b.dir) // PopBatch checked it names one
		seq, img := r.uint(), r.bytes()
		fn(origin, seq, img)
	}
}

// reader reads a batch body front to back. A read the bytes left cannot
// satisfy returns nothing and fails the reader for good.
type reader struct {
	rest   []byte
	failed bool
}

// origin reads an origin wire.AppendEndpointID wrote: its word and,
// if it travels, its site.
func (r *reader) origin() (w uint64, site []byte) {
	if w = r.uint(); w&1 != 0 {
		site = r.bytes()
	}
	return w, site
}

// named reports whether known or dir names the birth of an origin that
// travels without its site.
func named(w uint64, known []core.EndpointID, dir core.Directory) bool {
	_, ok := wire.Resolve(w, nil, known, dir)
	return ok
}

// uint reads an integer message.PushUint encoded.
func (r *reader) uint() uint64 {
	v, n := binary.Uvarint(r.rest)
	if n <= 0 {
		r.rest, r.failed = nil, true
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

// bytes reads a length and that many bytes.
func (r *reader) bytes() []byte {
	n := r.uint()
	if n > uint64(len(r.rest)) {
		r.rest, r.failed = nil, true
		return nil
	}
	b := r.rest[:n:n]
	r.rest = r.rest[n:]
	return b
}
