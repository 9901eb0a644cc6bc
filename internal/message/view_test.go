package message

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"
)

// A received message is a view of its wire buffer (Unmarshal) and a
// clone is a view of the message it was taken from (Clone). These tests
// hold both to two promises: whatever is done to a message and its
// clones, bytes that were handed in — the wire buffer other receivers
// of one multicast read, the body an application owns — stay
// byte-identical, and every message behaves exactly like one built by
// copying, which is what Unmarshal and Clone used to do.

// deepCopy is the copying Clone the real one is compared against.
func deepCopy(m *Message) *Message { return FromParts(m.Header(), m.Body()) }

// applyOp runs one scripted operation on m and returns how many script
// bytes it used. The script is total: any byte string is a valid
// sequence of pops (never past the end), pushes and body replacements.
// Ops 8 and 9 belong to family.step.
func applyOp(m *Message, script []byte) int {
	arg := func(i int) byte {
		if i < len(script) {
			return script[i]
		}
		return 0
	}
	switch script[0] % 10 {
	case 0:
		m.Pop(int(arg(1)) % (m.HeaderLen() + 1))
		return 2
	case 1:
		m.PushUint8(arg(1))
		return 2
	case 2:
		m.PushUint16(uint16(arg(1))<<8 | uint16(arg(2)))
		return 3
	case 3:
		m.PushUint32(uint32(arg(1))<<24 | uint32(arg(2)))
		return 3
	case 4:
		m.PushUint64(uint64(arg(1))<<56 | uint64(arg(2)))
		return 3
	case 5:
		n := int(arg(1)) % 6
		m.PushBytes(bytes.Repeat([]byte{arg(2)}, n))
		return 3
	case 6:
		n := int(arg(1)) % 6
		m.PushAligned(bytes.Repeat([]byte{arg(2)}, n))
		return 3
	default:
		m.SetBody(bytes.Repeat([]byte{arg(1)}, int(arg(2))%9))
		return 3
	}
}

// family is a message, the clones taken of it and of them, and beside
// each a reference that was copied where the real one shares.
type family struct {
	ms, refs []*Message
	cur      int // the message the next operation applies to

	// handed are the bytes the root was built over, which nothing may
	// write: a wire buffer, or an application's body. The application
	// may reuse its body once the message is retained, so the test
	// overwrites it at the first Clone (appBody) and no message may
	// notice.
	handed, want []byte
	appBody      bool
}

const maxFamily = 8

// step runs one operation: 8 copies the current message into the
// family, 9 makes another member current, the rest are applyOp's. A
// copy is a Clone, or, when the opcode's tens digit is odd (18, 38, …),
// a CopyFrom into a message with a little headroom of its own: the two
// ways a layer keeps or re-sends what it was handed.
func (f *family) step(script []byte) int {
	switch script[0] % 10 {
	case 8:
		if len(f.ms) < maxFamily {
			var c *Message
			if script[0]/10%2 == 1 {
				c = new(Message)
				c.AttachHeadroom(make([]byte, 8*len(f.ms)))
				c.CopyFrom(f.ms[f.cur])
			} else {
				c = f.ms[f.cur].Clone()
			}
			f.ms = append(f.ms, c)
			f.refs = append(f.refs, deepCopy(f.refs[f.cur]))
			if f.appBody {
				for i := range f.handed {
					f.handed[i] ^= 0xA5
				}
				f.want = append(f.want[:0], f.handed...)
				f.appBody = false
			}
		}
		return 1
	case 9:
		if len(script) > 1 {
			f.cur = int(script[1]) % len(f.ms)
		}
		return 2
	}
	applyOp(f.refs[f.cur], script)
	return applyOp(f.ms[f.cur], script)
}

// run plays script and compares every member with its reference, and
// the handed-in bytes with their content, after every operation.
func (f *family) run(t *testing.T, script []byte) {
	t.Helper()
	f.want = append([]byte(nil), f.handed...)
	for step := 0; len(script) > 0; step++ {
		n := f.step(script)
		script = script[min(n, len(script)):]
		for i, m := range f.ms {
			if ref := f.refs[i]; !Equal(m, ref) {
				t.Fatalf("step %d: member %d %v %x|%x differs from its copying reference %v %x|%x",
					step, i, m, m.Header(), m.Body(), ref, ref.Header(), ref.Body())
			}
		}
		if !bytes.Equal(f.handed, f.want) {
			t.Fatalf("step %d: handed-in bytes written through:\n got %x\nwant %x", step, f.handed, f.want)
		}
	}
	for i, m := range f.ms {
		if !bytes.Equal(m.Marshal(), f.refs[i].Marshal()) {
			t.Fatalf("member %d: marshalled forms differ", i)
		}
	}
}

// checkView runs script against a view of wire and against a copying
// parse of the same bytes.
func checkView(t *testing.T, wire, script []byte) {
	t.Helper()
	view, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	hlen := int(binary.BigEndian.Uint32(wire))
	ref := FromParts(wire[4:4+hlen], wire[4+hlen:])
	(&family{ms: []*Message{view}, refs: []*Message{ref}, handed: wire}).run(t, script)
}

// checkSent runs script against a message built the way a sender builds
// one — New over the application's body, headers pushed — with the
// content of wire.
func checkSent(t *testing.T, wire, script []byte) {
	t.Helper()
	hlen := int(binary.BigEndian.Uint32(wire))
	body := append([]byte(nil), wire[4+hlen:]...)
	m := New(body)
	m.Push(wire[4 : 4+hlen])
	ref := FromParts(wire[4:4+hlen], body)
	(&family{ms: []*Message{m}, refs: []*Message{ref}, handed: body, appBody: true}).run(t, script)
}

func TestSharedBytesAreNeverWritten(t *testing.T) {
	m := New([]byte("the body"))
	m.PushUint32(42)
	m.PushString("frag")
	m.PushUint64(7)
	headers := m.Marshal()
	bare := New([]byte("only a body")).Marshal()
	hdrOnly := New(nil)
	hdrOnly.PushUint16(9)
	empty := New(nil).Marshal()

	for _, tc := range []struct {
		name   string
		wire   []byte
		script []byte
	}{
		{"push on untouched view", headers, []byte{1, 0xEE}},
		{"pop then push back other bytes", headers, []byte{0, 8, 4, 0xAA, 0xBB}},
		{"pop everything then push", headers, []byte{0, 255, 0, 255, 0, 255, 3, 1, 2}},
		{"push wider than what was popped", headers, []byte{0, 2, 5, 5, 0x11, 5, 5, 0x22, 5, 5, 0x33}},
		{"many pushes outgrow the first copy", headers, bytes.Repeat([]byte{4, 0xF0, 0x0F}, 40)},
		{"aligned push after pop", headers, []byte{0, 3, 6, 3, 0x77}},
		{"set body then push", headers, []byte{7, 'x', 5, 2, 1, 2}},
		{"pop, set body, pop, push", headers, []byte{0, 4, 7, 'y', 3, 0, 4, 1, 9}},
		{"no headers: push", bare, []byte{3, 1, 2}},
		{"no headers: pop nothing, push", bare, []byte{0, 7, 1, 1}},
		{"headers, no body", hdrOnly.Marshal(), []byte{0, 1, 2, 0xAB, 0xCD}},
		{"empty message", empty, []byte{1, 1, 0, 1, 7, 'z', 3}},

		// Retention: MBRSHIP's log and NAK's buffer clone, then the
		// original is pushed onto on its way down.
		{"clone then push on the original", headers, []byte{8, 4, 1, 2, 1, 0xEE}},
		{"clone then push on the clone", headers, []byte{8, 9, 1, 4, 1, 2, 9, 0, 1, 0xEE}},
		// MBRSHIP's future buffer pops a tag and pushes it back.
		{"clone, pop, push back other bytes", headers, []byte{8, 0, 8, 4, 0xAA, 0xBB, 9, 1, 0, 8, 4, 0xCC, 0xDD}},
		{"pop, clone, push over the popped bytes", headers, []byte{0, 8, 8, 4, 0x11, 0x22}},
		{"clone twice at different depths", headers, []byte{8, 0, 8, 8, 1, 1, 9, 1, 1, 2, 9, 2, 1, 3}},
		{"clone of a clone", headers, []byte{8, 9, 1, 8, 9, 2, 3, 1, 2, 9, 0, 0, 4, 9, 1, 2, 5, 6}},
		{"clone then outgrow the headroom", headers, append([]byte{8}, bytes.Repeat([]byte{4, 0xF0, 0x0F}, 40)...)},
		{"clone, set body on the original", headers, []byte{8, 7, 'q', 4, 9, 1, 1, 1}},
		{"clone, set body on the clone, clone again", headers, []byte{8, 9, 1, 7, 'r', 6, 8, 9, 2, 1, 1}},
		{"set body, clone, set body", headers, []byte{7, 's', 3, 8, 7, 't', 2, 9, 1, 1, 5}},
		{"no headers: clone then push both", bare, []byte{8, 1, 1, 9, 1, 1, 2}},
		{"empty message: clone then push both", empty, []byte{8, 2, 1, 2, 9, 1, 2, 3, 4}},
		// NAK's copies for the other destinations of a send, and its
		// retransmissions: CopyFrom (18) into headroom, then pushes on
		// both; on a sent message the copy is what freezes the body.
		{"copy into headroom, push on the copy and the original", headers, []byte{18, 9, 1, 4, 1, 2, 1, 0xEE, 9, 0, 1, 0xDD}},
		{"copy into headroom too small for what follows", headers, append([]byte{18, 9, 1}, bytes.Repeat([]byte{4, 0xF0, 0x0F}, 10)...)},
		{"copy of a copy, set body on the first", headers, []byte{18, 9, 1, 18, 7, 'u', 3, 9, 2, 1, 1}},
		{"pop, copy, push over the popped bytes", headers, []byte{0, 8, 18, 4, 0x11, 0x22, 9, 1, 4, 0x33, 0x44}},
		{"no headers: copy then push both", bare, []byte{18, 1, 1, 9, 1, 1, 2}},
		{"copy, then clone the original, push on all three", headers, []byte{18, 8, 1, 1, 9, 1, 1, 2, 9, 2, 1, 3}},
		{"clone, then copy the original and the clone", headers, []byte{8, 18, 9, 1, 18, 1, 1, 9, 2, 1, 2, 9, 3, 1, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkView(t, append([]byte(nil), tc.wire...), tc.script)
			checkSent(t, tc.wire, tc.script)
		})
	}
}

// TestUnmarshalViewsShareOneBuffer is the fan-out case itself: two
// receivers view the same buffer, one pops and pushes, the other must
// still read what was sent.
func TestUnmarshalViewsShareOneBuffer(t *testing.T) {
	m := New([]byte("payload"))
	m.PushUint64(0x0102030405060708)
	m.PushUint8(3)
	wire := m.Marshal()
	a, _ := Unmarshal(wire)
	b, _ := Unmarshal(wire)
	a.PopUint8()
	a.PopUint64()
	a.PushUint64(0xFFFFFFFFFFFFFFFF)
	a.PushUint8(0xFF)
	if !Equal(b, m) {
		t.Fatalf("second receiver sees %x|%x after the first pushed", b.Header(), b.Body())
	}
	if got := a.PopUint8(); got != 0xFF {
		t.Fatalf("first receiver's own push reads back %#x", got)
	}
}

// TestUnmarshalViewClipsCapacity: appending to a popped header or to
// the body must reallocate, not run on into the bytes behind it.
func TestUnmarshalViewClipsCapacity(t *testing.T) {
	m := New([]byte("body"))
	m.PushUint32(1)
	m.PushUint32(2)
	wire := m.Marshal()
	orig := append([]byte(nil), wire...)
	// Spare capacity behind the buffer, as a transport's read buffer has.
	wire = append(make([]byte, 0, len(wire)+16), wire...)
	v, _ := Unmarshal(wire)
	_ = append(v.Pop(4), 0xEE)
	_ = append(v.Header(), 0xEE)
	_ = append(v.Body(), 0xEE)
	if !bytes.Equal(wire[:cap(wire)][:len(orig)], orig) || wire[:cap(wire)][len(orig)] != 0 {
		t.Fatalf("append ran on into the wire buffer: %x", wire[:cap(wire)])
	}
}

// TestUnmarshalAllocs pins the receive path's share of the message
// package: the Message itself, and nothing for Attach.
func TestUnmarshalAllocs(t *testing.T) {
	m := New(make([]byte, 64))
	m.PushUint64(1)
	wire := m.Marshal()
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if sinkMessage, err = Unmarshal(wire); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Unmarshal: %v allocations, want 1", n)
	}
	var into Message
	if n := testing.AllocsPerRun(100, func() {
		if err := into.Attach(wire); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Attach: %v allocations, want 0", n)
	}
}

// TestRetentionAllocs pins what retaining a message costs: a Message
// and nothing else for one that arrived, plus the one private copy of
// the body for one the application built, and a Message and one slab
// for FromParts. The Attach forms retain into a Message the caller
// already has (NAK's ring slots) and save exactly the Message, and the
// body's copy too when the body was declared shared; New is the
// Message alone, and its first push reserves the default headroom and
// no more, unless the message was given headroom first.
func TestRetentionAllocs(t *testing.T) {
	sent := New(make([]byte, 64))
	sent.PushUint64(1)
	wire := sent.Marshal()
	received, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { sinkMessage = received.Clone() }); n != 1 {
		t.Errorf("Clone of a received message: %v allocations, want 1", n)
	}
	body := make([]byte, 64)
	if n := testing.AllocsPerRun(100, func() {
		sent.SetBody(body) // the application's again: the next Clone is a first Clone
		sinkMessage = sent.Clone()
	}); n != 2 {
		t.Errorf("first Clone of New(body): %v allocations, want 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkMessage = sent.Clone() }); n != 1 {
		t.Errorf("second Clone of New(body): %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkMessage = FromParts(wire[4:12], wire[12:]) }); n != 2 {
		t.Errorf("FromParts: %v allocations, want 2", n)
	}

	var slot Message
	if n := testing.AllocsPerRun(100, func() { slot.AttachClone(received) }); n != 0 {
		t.Errorf("AttachClone of a received message: %v allocations, want 0", n)
	}
	if !Equal(&slot, received) {
		t.Error("AttachClone of a received message differs from it")
	}
	if n := testing.AllocsPerRun(100, func() {
		sent.SetBody(body)
		slot.AttachClone(sent)
	}); n != 1 {
		t.Errorf("first AttachClone of New(body): %v allocations, want 1", n)
	}
	shared := NewShared(body)
	if n := testing.AllocsPerRun(100, func() { slot.AttachClone(shared) }); n != 0 {
		t.Errorf("AttachClone of NewShared(body): %v allocations, want 0", n)
	}
	if len(slot.Body()) != len(body) || &slot.Body()[0] != &body[0] {
		t.Error("AttachClone of NewShared(body) does not share the body")
	}

	var room [32]byte
	if n := testing.AllocsPerRun(100, func() {
		slot.AttachHeadroom(room[:])
		slot.CopyFrom(received)
		slot.PushUint64(2)
		slot.PopUint64()
	}); n != 0 {
		t.Errorf("CopyFrom a received message into headroom, and a push: %v allocations, want 0", n)
	}
	if !Equal(&slot, received) {
		t.Error("CopyFrom of a received message differs from it")
	}

	if n := testing.AllocsPerRun(100, func() { sinkMessage = New(body) }); n != 1 {
		t.Errorf("New: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkMessage = New(body)
		sinkMessage.PushUint64(1)
		sinkMessage.PushUint8(1)
	}); n != 2 {
		t.Errorf("New and two pushes: %v allocations, want 2", n)
	}
	if got := len(sinkMessage.buf); got != defaultHeadroom {
		t.Errorf("first push onto New reserved %d bytes, want %d", got, defaultHeadroom)
	}
	hdr := make([]byte, len(room)-1)
	if n := testing.AllocsPerRun(100, func() {
		sinkMessage = New(body)
		sinkMessage.AttachHeadroom(room[:])
		sinkMessage.Push(hdr)
		sinkMessage.PushUint8(1)
	}); n != 1 {
		t.Errorf("New, headroom and pushes that fill it: %v allocations, want 1", n)
	}
	if &sinkMessage.Body()[0] != &body[0] || sinkMessage.HeaderLen() != len(room) {
		t.Error("AttachHeadroom did not keep the body, or the pushes left its room")
	}
}

// TestMessageSize: one Message is allocated per received packet, per
// clone and per fragment, and a 65th byte would put every one of them
// in the 80-byte size class.
func TestMessageSize(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n > 64 {
		t.Errorf("Message is %d bytes, want at most 64", n)
	}
}

// sinkMessage keeps a measured result alive so it is not optimized away.
var sinkMessage *Message
