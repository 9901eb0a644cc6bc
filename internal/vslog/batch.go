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
//	birth, site length, site, seq, image length, image
//
// with the integers as message.PushUint encodes them and the image the
// logged message's wire image (message.AppendWire). MBRSHIP's forwards
// and the exchange's DONE carry one, and both read it with PopBatch.

// minEntryLen is the fewest body bytes an entry can take: a byte for
// each integer and an image that is a header length of 0 alone.
const minEntryLen = 5

// PushBatch makes the entries of l m's body, copying each image once,
// into the one buffer it allocates, and pushes their count. It returns
// the count; an empty log leaves the body alone and allocates nothing.
// The body is frozen: nothing writes it again, so a layer below that
// retains the message shares it.
func PushBatch(m *message.Message, l *Log) int {
	size, n := 0, 0
	for _, o := range l.origins {
		id := message.UintLen(o.id.Birth) + message.UintLen(uint64(len(o.id.Site))) + len(o.id.Site)
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
				body = binary.AppendUvarint(body, o.id.Birth)
				body = binary.AppendUvarint(body, uint64(len(o.id.Site)))
				body = append(body, o.id.Site...)
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
// in body, and nothing behind the last of them.
type Batch struct {
	n    int
	body []byte
}

// PopBatch pops the count PushBatch pushed and checks m's body against
// it, entry by entry, before anything is applied: a body that ends
// inside an entry, a count beyond the entries present, a length that
// runs past the end, an image that is not a message's wire image or
// bytes behind the last entry refuse the whole batch (ok is false). The
// batch views the body; it allocates nothing.
func PopBatch(m *message.Message) (b Batch, ok bool) {
	count, body := m.PopUint(), m.Body()
	if count > uint64(len(body)/minEntryLen) {
		return Batch{}, false
	}
	r := reader{rest: body}
	for range count {
		r.uint()
		r.bytes()
		r.uint()
		var msg message.Message
		if img := r.bytes(); r.failed || msg.Attach(img) != nil {
			return Batch{}, false
		}
	}
	if len(r.rest) != 0 {
		return Batch{}, false
	}
	return Batch{n: int(count), body: body}, true
}

// Len returns how many entries the batch holds.
func (b Batch) Len() int { return b.n }

// Each calls fn for every entry in order: its origin, resolved against
// known as wire.PopKnownEndpointID resolves one, its number in the
// origin's stream and its image, a view of the batch that is read-only
// and, like the message it was popped from, safe to keep. Every image
// is a wire image message.Unmarshal reads.
func (b Batch) Each(known []core.EndpointID, fn func(origin core.EndpointID, seq uint64, image []byte)) {
	r := reader{rest: b.body}
	for range b.n {
		birth, site, seq, img := r.uint(), r.bytes(), r.uint(), r.bytes()
		fn(wire.Resolve(birth, site, known), seq, img)
	}
}

// reader reads a batch body front to back. A read the bytes left cannot
// satisfy returns nothing and fails the reader for good.
type reader struct {
	rest   []byte
	failed bool
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
