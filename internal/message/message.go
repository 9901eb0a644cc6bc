// Package message implements the Horus message object (paper §3).
//
// A message is a local storage structure whose interface includes
// operations to push and pop protocol headers, much like a stack:
// headers are added as the message travels down the protocol stack on
// send, and removed as it travels up on delivery. The implementation
// keeps headroom in front of the payload so that pushing a header is a
// copy into pre-allocated space, not a reallocation, and the body can
// be referenced without copying (paper: "a message object can contain
// pointers to data located in the address space of the application").
package message

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// defaultHeadroom is the initial spare space reserved in front of the
// payload for protocol headers, which arrives with the first push. It
// was sized when the paper's §7 stack pushed 79 bytes onto a benchmark
// cast, and 64 made every cast's headers move once. With integers as
// wide as their values (PushUint) the same headers are about 27 bytes,
// and about 16 with endpoints named by their births (package wire),
// and fit the smaller room an application's cast starts out in, carved
// for it from its endpoint's slab (see AttachRecord), so on the data
// path this headroom serves messages built without such room.
const defaultHeadroom = 96

// wordSize is the alignment unit used by PushAligned, modelling the
// word-aligned headers whose padding overhead §10 of the paper calls
// out.
const wordSize = 4

// Message is a byte container supporting stack-like header push/pop at
// the front. The zero value is an empty message ready for use.
type Message struct {
	buf  []byte // header storage; live header bytes are buf[off:]
	off  int32  // start of live header data within buf (see offset)
	body []byte // payload, referenced without copying until Marshal

	// own bounds what this message may write: buf[own:] can be read by
	// other messages (clones, other receivers of one wire buffer) and
	// is never written again; buf[:own] is seen by this message alone.
	// A fresh message owns all of buf (own == len(buf)), a view of a
	// wire buffer none of it (own == 0), and Clone lowers own to off.
	own int32

	frozen bool // body is immutable for good (a wire view or a private copy): clones share it
}

// offset converts a position in header storage to the width the Message
// keeps it in. 32 bits hold any header stack that exists and keep the
// struct in the 64-byte size class — one is allocated per received
// packet, per clone and per fragment; storage beyond that is refused
// where it is made.
func offset(n int) int32 {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("message: %d bytes of header storage", n))
	}
	return int32(n)
}

// New returns a message whose payload references body without copying.
// The stack never writes to body, and the caller must not mutate it
// while the message is in flight; whatever retains the message beyond
// that takes a private copy (see Clone and Freeze), so the caller may
// reuse body once the downcall it handed the message to has run.
//
// New makes the Message and nothing else, and a caller that hands it
// on without keeping it (core.Group.Cast copies it) leaves it on its
// stack: header storage arrives with the first push (see grow), or
// before it from whatever carries the message (AttachHeadroom).
func New(body []byte) *Message { return &Message{body: body} }

// NewShared is New for a body that nobody, the caller included, writes
// again — a piece of a buffer the caller made and now only reads.
// Whatever retains the message shares the body instead of copying it.
func NewShared(body []byte) *Message { return &Message{body: body, frozen: true} }

// NewWithHeadroom returns an empty message with the given number of
// bytes of pre-allocated header space. Used by benchmarks to isolate
// allocation effects.
func NewWithHeadroom(headroom int, body []byte) *Message {
	buf := make([]byte, headroom)
	return &Message{buf: buf, off: offset(len(buf)), own: offset(len(buf)), body: body}
}

// Body returns the payload. The returned slice is shared, not copied,
// and read-only: on a received message it is a view of the wire buffer
// (see Unmarshal), on a cloned one the clones read it too, so a
// consumer that wants to mutate it copies it first.
func (m *Message) Body() []byte { return m.body }

// SetBody replaces the payload reference. The new body is the caller's
// again, under the rule New states.
func (m *Message) SetBody(body []byte) { m.body, m.frozen = body, false }

// SetSharedBody is SetBody for a body nobody, the caller included,
// writes again, as NewShared is New for one: whatever retains the
// message shares the body instead of copying it.
func (m *Message) SetSharedBody(body []byte) { m.body, m.frozen = body, true }

// Header returns the pushed header bytes, front first. The returned
// slice aliases the message's internal buffer and is invalidated by the
// next push or pop; callers must treat it as read-only. CHKSUM reads
// it, with the body, to checksum the message without marshalling it.
func (m *Message) Header() []byte { return m.buf[m.off:len(m.buf):len(m.buf)] }

// HeaderLen returns the number of pushed header bytes not yet popped.
func (m *Message) HeaderLen() int { return len(m.buf) - int(m.off) }

// Len returns the total wire length: headers plus body.
func (m *Message) Len() int { return m.HeaderLen() + len(m.body) }

// grow makes buf[off-n:off] writable. It already is when n bytes of
// headroom remain and they are the message's own (off <= own). When off
// lies above own — a wire view, a clone, or a message that popped
// headers a clone still reads — a push would write bytes another
// message can see, so the live headers move to fresh storage first,
// exactly as when the headroom runs out. The new headroom fits n and
// at least doubles what the message had, so repeated pushes stay
// amortized; a message with no storage yet (New, the zero value) gets
// the default headroom, not n on top of it.
func (m *Message) grow(n int) {
	if n <= int(m.off) && m.off <= m.own {
		return
	}
	hdr := m.buf[m.off:]
	room := max(defaultHeadroom, n)
	if len(m.buf) > 0 {
		room = n + max(defaultHeadroom, len(m.buf))
	}
	m.buf = make([]byte, room+len(hdr))
	copy(m.buf[room:], hdr)
	m.off, m.own = offset(room), offset(len(m.buf))
}

// Push prepends b to the header region.
func (m *Message) Push(b []byte) {
	m.grow(len(b))
	m.off -= int32(len(b))
	copy(m.buf[m.off:], b)
}

// ShortRead is the value a read of header bytes the message does not
// hold panics with: Pop's, and the wire package's decoders' when a
// count promises more elements than the remaining headers can hold. On
// a received message that is line damage — a garbled length or count —
// and the endpoint drops the packet and counts it as malformed; every
// other panic on the way up is a program bug and is not recovered.
type ShortRead struct {
	Want, Have int // header bytes asked for and present
}

func (e ShortRead) Error() string {
	return fmt.Sprintf("message: short read: %d header bytes wanted, %d present", e.Want, e.Have)
}

// Pop removes and returns the first n header bytes. The returned slice
// aliases the message's internal buffer — on a received message, the
// wire buffer itself (see Unmarshal) — so it is read-only, and callers
// that retain it across further pushes must copy it. Pop panics with
// ShortRead if fewer than n header bytes are present.
func (m *Message) Pop(n int) []byte {
	if m.HeaderLen() < n {
		panic(ShortRead{Want: n, Have: m.HeaderLen()})
	}
	b := m.buf[m.off : int(m.off)+n : int(m.off)+n] // clipped: an append must not reach the next header
	m.off += int32(n)
	return b
}

// PushUint8 prepends a single byte header.
func (m *Message) PushUint8(v uint8) {
	m.grow(1)
	m.off--
	m.buf[m.off] = v
}

// PopUint8 removes and returns a single byte header.
func (m *Message) PopUint8() uint8 { return m.Pop(1)[0] }

// PushUint prepends v as an unsigned LEB128 integer, the encoding of
// encoding/binary's Uvarint: seven bits to a byte, low bits first, the
// top bit set on every byte but the last. A value below 128 takes one
// byte and none takes more than ten, so a header field is as wide as
// its value, not as its type (paper §10: fixed-width headers are "a
// considerable overhead of unused bits").
func (m *Message) PushUint(v uint64) {
	n := UintLen(v)
	m.grow(n)
	m.off -= int32(n)
	if n == 1 { // most header values: kinds, small sequence numbers, counts
		m.buf[m.off] = byte(v)
		return
	}
	binary.PutUvarint(m.buf[m.off:], v)
}

// PopUint removes and returns an integer pushed by PushUint. An encoding
// that does not end within the header bytes, or within the ten bytes a
// 64-bit value can take, panics with ShortRead. One padded with
// redundant zero groups decodes to its value, as Uvarint decodes it.
func (m *Message) PopUint() uint64 {
	if b := m.buf[m.off:]; len(b) > 0 && b[0] < 0x80 {
		m.off++
		return uint64(b[0])
	}
	return m.popUintLong()
}

// popUintLong is PopUint for an encoding longer than one byte, or none.
func (m *Message) popUintLong() uint64 {
	v, n := binary.Uvarint(m.buf[m.off:])
	if n <= 0 {
		have := min(m.HeaderLen(), binary.MaxVarintLen64)
		panic(ShortRead{Want: have + 1, Have: have})
	}
	m.off += int32(n)
	return v
}

// UintLen returns the number of bytes PushUint takes for v.
func UintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// PushBytes prepends a length-prefixed byte string.
func (m *Message) PushBytes(b []byte) {
	m.Push(b)
	m.PushUint(uint64(len(b)))
}

// PopBytes removes a length-prefixed byte string pushed by PushBytes. A
// length the remaining headers cannot hold panics with ShortRead, and is
// compared with them before it becomes an int.
func (m *Message) PopBytes() []byte {
	n := m.PopUint()
	if n > uint64(m.HeaderLen()) {
		panic(ShortRead{Want: int(min(n, math.MaxInt32)), Have: m.HeaderLen()})
	}
	return m.Pop(int(n))
}

// PushString prepends a length-prefixed string.
func (m *Message) PushString(s string) { m.PushBytes([]byte(s)) }

// PopString removes a length-prefixed string pushed by PushString.
func (m *Message) PopString() string { return string(m.PopBytes()) }

// PushAligned prepends b padded with zero bytes so the resulting
// header occupies a multiple of the machine word size. This models the
// word-aligned headers of the original Horus implementation; §10 of
// the paper reports that the padding is "a considerable overhead of
// unused bits". PopAligned(len(b)) is the inverse.
func (m *Message) PushAligned(b []byte) {
	pad := (wordSize - len(b)%wordSize) % wordSize
	m.grow(len(b) + pad)
	m.off -= int32(len(b) + pad)
	copy(m.buf[m.off:], b)
	for i := 0; i < pad; i++ {
		m.buf[int(m.off)+len(b)+i] = 0
	}
}

// PopAligned removes an n-byte header pushed by PushAligned, discarding
// its alignment padding, and returns the n significant bytes.
func (m *Message) PopAligned(n int) []byte {
	pad := (wordSize - n%wordSize) % wordSize
	b := m.Pop(n + pad)
	return b[:n]
}

// Clone returns a message with the same headers and body that is
// independent of m: no push, pop or SetBody on one is ever seen by the
// other. It is how a layer retains a message (MBRSHIP's delivery log,
// NAK's retransmission buffer) and costs one allocation, the Message
// itself: the clone views m's live header bytes, which m gives up
// writing (own drops to off; m keeps its headroom, so the usual
// clone-then-push copies nothing, and the clone moves its headers only
// if it is pushed onto), and both share the body. A body that came from
// the application is first replaced by a private copy, once — from
// then on the caller's buffer is not referenced by m or any clone.
func (m *Message) Clone() *Message {
	c := new(Message)
	c.AttachClone(m)
	return c
}

// AttachClone makes m, which must not be in use, the clone of src that
// Clone returns, without allocating the Message. It exists so a layer
// that retains messages in storage of its own (NAK's retransmission
// ring) pays only for what Clone copies: nothing for a received
// message, the body for one that came from the application.
func (m *Message) AttachClone(src *Message) {
	body := src.sharedBody()
	src.own = min(src.own, src.off)
	*m = Message{buf: src.buf[src.off:], body: body, frozen: true}
}

// Freeze makes m's body one that nobody else writes, as Clone does
// before it shares it: a body that came from the application is
// replaced by a private copy, once, and any other is kept. It is how a
// message parked beyond its downcall stops referencing the caller's
// buffer, which New lets the caller reuse from then on.
func (m *Message) Freeze() { m.sharedBody() }

// sharedBody returns m's body in a form other messages may keep: the
// application's buffer is replaced by a private copy the first time.
func (m *Message) sharedBody() []byte {
	if !m.frozen {
		m.body = append([]byte(nil), m.body...)
		m.frozen = true
	}
	return m.body
}

// AttachHeadroom makes buf m's header storage, all of it headroom and
// all of it m's own; whatever headers m had are dropped, and its body
// is kept. It exists so whatever carries a message can give it header
// storage sized for what will be pushed: the storage a layer's send
// record carves from its endpoint's slab (core.Context.NewSendTo), and
// that an application's cast whose body is too large to come along
// gets there (AttachRecord). A push beyond it moves to fresh storage
// like any other (see grow).
func (m *Message) AttachHeadroom(buf []byte) {
	*m = Message{buf: buf, off: offset(len(buf)), own: offset(len(buf)), body: m.body, frozen: m.frozen}
}

// AttachRecord is AttachHeadroom for storage with room for the body
// as well: the first room bytes of rec become m's header storage, and
// m's body is copied in directly behind them and frozen. The headers
// pushed into the room then lie against the body, so rec holds the
// message's whole wire image and Wire renders it in place; the body is
// rec's from here on, and the caller's buffer is free at once. It is
// how an application's small cast is carried, in storage its endpoint
// carves from a Slab (core.Group.Cast). The body must fit:
// room+len(m.Body()) <= len(rec).
func (m *Message) AttachRecord(rec []byte, room int) {
	end := room + len(m.body)
	copy(rec[room:end], m.body)
	m.attachSlot(rec[:end], room)
}

// attachSlot makes m the message of slot: its first room bytes are m's
// header storage, all of it headroom and m's own, and the rest is m's
// body, frozen, so the headers pushed into the room lie against it.
func (m *Message) attachSlot(slot []byte, room int) {
	n := len(slot)
	*m = Message{buf: slot[:room:n], off: offset(room), own: offset(room), body: slot[room:n:n], frozen: true}
}

// CopyFrom makes m, which carries no body of its own, an independent
// copy of src the other way round from AttachClone: src's headers are
// pushed onto m's, into m's storage, and the body is shared as Clone
// shares it. A message with headroom (AttachHeadroom) therefore takes
// the copy and the headers a lower layer pushes afterwards without
// allocating, where a clone's first push moves its headers. NAK builds
// retransmissions and the extra copies of a subset send this way.
func (m *Message) CopyFrom(src *Message) {
	m.Push(src.buf[src.off:])
	m.body, m.frozen = src.sharedBody(), true
}

// AppendWire appends the message's wire format to dst and returns the
// extended slice: the header length as PushUint encodes it, the header
// bytes, then the body.
func (m *Message) AppendWire(dst []byte) []byte {
	hdr := m.buf[m.off:]
	dst = binary.AppendUvarint(dst, uint64(len(hdr)))
	dst = append(dst, hdr...)
	return append(dst, m.body...)
}

// Wire returns the message's wire image, the bytes Marshal renders,
// for good: neither m nor any message that shares its storage writes
// them again, so a transport may keep them and hand them to every
// receiver of one send. The image is rendered in place, by writing the
// header length into the room in front of the headers, when three
// things hold: the headers lie directly against the body in storage m
// owns (storage that took the body, see AttachRecord, or a message
// with no body), the body is frozen or empty, and the header
// length fits in front of the headers. Otherwise it is rendered into
// one fresh buffer, and m becomes a view of that image, as Unmarshal's
// message is of its wire. Either way m gives up writing the image, and
// a second call returns it again without writing or allocating.
func (m *Message) Wire() []byte {
	hlen := m.HeaderLen()
	start, end := int(m.off)-UintLen(uint64(hlen)), len(m.buf)+len(m.body)
	if start >= 0 && (m.frozen || len(m.body) == 0) && m.bodyBehindHeaders() {
		lead := m.buf[start:m.off]
		if m.off <= m.own {
			binary.PutUvarint(lead, uint64(hlen))
		}
		if v, n := binary.Uvarint(lead); n == len(lead) && v == uint64(hlen) {
			m.own = min(m.own, offset(start))
			return m.buf[start:end:end]
		}
	}
	img := m.AppendWire(make([]byte, 0, m.WireLen()))
	hdrEnd := len(img) - len(m.body)
	*m = Message{buf: img[:hdrEnd], off: offset(hdrEnd - hlen), body: img[hdrEnd:], frozen: true}
	return img
}

// bodyBehindHeaders reports whether the body's first byte is the one
// behind the headers in their storage, so the two form one slice.
func (m *Message) bodyBehindHeaders() bool {
	n := len(m.buf)
	if len(m.body) == 0 {
		return true
	}
	return cap(m.buf)-n >= len(m.body) && &m.buf[:n+1][n] == &m.body[0]
}

// WireLen returns the length of the message's wire format.
func (m *Message) WireLen() int { return UintLen(uint64(m.HeaderLen())) + m.Len() }

// Marshal renders the message to its wire format in a fresh buffer.
func (m *Message) Marshal() []byte {
	return m.AppendWire(make([]byte, 0, m.WireLen()))
}

// Split cuts m's wire image — the bytes AppendWire appends — into
// pieces of size bytes, the last possibly shorter, and makes piece(i)
// the message of the i-th, for i from 0 to ceil(WireLen()/size)-1. The
// image is written once, into one buffer Split allocates, where every
// piece lies behind room bytes of header room (AttachRecord's layout):
// a piece is its message's frozen body, and the room in front of it
// the message's header storage, so the headers a layer beneath pushes
// lie against the piece and Wire renders it in place. The buffer is a
// copy of m's image, read-only but for each piece's room, so the
// application's buffer is never referenced and m is left as it was.
// Size must be positive, and the messages piece returns must not be
// in use.
func (m *Message) Split(size, room int, piece func(i int) *Message) {
	var lead [binary.MaxVarintLen64]byte
	hdr := m.buf[m.off:]
	img := [...][]byte{lead[:binary.PutUvarint(lead[:], uint64(len(hdr)))], hdr, m.body}
	slot, n := room+size, (m.WireLen()+size-1)/size
	buf := make([]byte, n*room+m.WireLen())
	at := 0 // where the next image byte goes
	for _, part := range img {
		for len(part) > 0 {
			if at%slot == 0 {
				at += room
			}
			c := copy(buf[at:min(len(buf), (at/slot+1)*slot)], part)
			part, at = part[c:], at+c
		}
	}
	for i := range n {
		piece(i).attachSlot(buf[i*slot:min(len(buf), (i+1)*slot)], room)
	}
}

// FromParts builds a message from explicit header and body bytes, both
// copied into one allocation. It reconstructs exactly what a receiving
// layer would see: a message whose pushed headers are hdr (front first)
// over payload body, sharing no byte with either. Tests use it as the
// deep-copy reference for the messages that do share. It reserves no
// headroom: the first push moves the headers.
func FromParts(hdr, body []byte) *Message {
	n := len(hdr)
	slab := make([]byte, n+len(body))
	copy(slab, hdr)
	copy(slab[n:], body)
	return &Message{buf: slab[:n:n], own: offset(n), body: slab[n:], frozen: true}
}

// Unmarshal parses a wire-format buffer produced by Marshal into a new
// message that is a view of wire: headers and body alias the buffer,
// nothing is copied. Ownership of wire passes to the message — the
// caller must not modify it afterwards — and the message never writes
// to it (own is 0 and the body is born frozen): popped headers and the
// body are read-only views (a consumer that wants to mutate a body
// copies it), and the first push moves the remaining headers to fresh
// storage. Several messages may therefore view one buffer, as the
// receivers of one multicast do.
func Unmarshal(wire []byte) (*Message, error) {
	m := new(Message)
	if err := m.Attach(wire); err != nil {
		return nil, err
	}
	return m, nil
}

// Attach makes m, which must not be in use, the view of wire that
// Unmarshal returns, without allocating. It exists so a receive path
// can embed the message in a record it allocates anyway.
func (m *Message) Attach(wire []byte) error {
	hlen, k := binary.Uvarint(wire)
	if k <= 0 {
		return fmt.Errorf("message: wire buffer of %d bytes has no header length", len(wire))
	}
	if hlen > uint64(len(wire)-k) || hlen > uint64(math.MaxInt32-k) {
		return fmt.Errorf("message: header length %d exceeds wire buffer %d", hlen, len(wire))
	}
	// Capacities are clipped so an append to a popped header or to the
	// body reallocates instead of running on into the bytes behind it.
	end := k + int(hlen)
	*m = Message{buf: wire[:end:end], off: int32(k), body: wire[end:len(wire):len(wire)], frozen: true}
	return nil
}

// Equal reports whether two messages have identical header bytes and
// bodies.
func Equal(a, b *Message) bool {
	if a.HeaderLen() != b.HeaderLen() || len(a.body) != len(b.body) {
		return false
	}
	ah, bh := a.buf[a.off:], b.buf[b.off:]
	for i := range ah {
		if ah[i] != bh[i] {
			return false
		}
	}
	for i := range a.body {
		if a.body[i] != b.body[i] {
			return false
		}
	}
	return true
}

// String renders a short diagnostic description.
func (m *Message) String() string {
	return fmt.Sprintf("msg{hdr=%d body=%d}", m.HeaderLen(), len(m.body))
}
