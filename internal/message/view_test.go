package message

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// A received message is a view of its wire buffer (Unmarshal). These
// tests hold it to two promises: whatever is done to the message, the
// buffer stays byte-identical — other receivers of one multicast read
// the same bytes — and the message behaves exactly like one parsed by
// copying, which is what Unmarshal used to do.

// unmarshalCopy is the copying parse the view is compared against.
func unmarshalCopy(wire []byte) *Message {
	hlen := int(binary.BigEndian.Uint32(wire))
	return FromParts(wire[4:4+hlen], wire[4+hlen:])
}

// applyOp runs one scripted operation on m and returns how many script
// bytes it used. The script is total: any byte string is a valid
// sequence of pops (never past the end), pushes and body replacements.
func applyOp(m *Message, script []byte) int {
	arg := func(i int) byte {
		if i < len(script) {
			return script[i]
		}
		return 0
	}
	switch script[0] % 8 {
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

// checkView runs script against a view of wire and against a copying
// parse of the same bytes, comparing the two after every operation and
// the buffer against its original content.
func checkView(t *testing.T, wire, script []byte) {
	t.Helper()
	orig := append([]byte(nil), wire...)
	view, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	ref := unmarshalCopy(orig)
	for step := 0; len(script) > 0; step++ {
		n := applyOp(view, script)
		applyOp(ref, script)
		if n > len(script) {
			n = len(script)
		}
		script = script[n:]
		if !Equal(view, ref) {
			t.Fatalf("step %d: view %v %x|%x differs from copying parse %v %x|%x",
				step, view, view.Header(), view.Body(), ref, ref.Header(), ref.Body())
		}
		if !bytes.Equal(wire, orig) {
			t.Fatalf("step %d: wire buffer written through:\n got %x\nwant %x", step, wire, orig)
		}
	}
	if !bytes.Equal(view.Marshal(), ref.Marshal()) {
		t.Fatal("marshalled forms differ")
	}
}

func TestUnmarshalViewNeverWritesWire(t *testing.T) {
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkView(t, append([]byte(nil), tc.wire...), tc.script)
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

// sinkMessage keeps a measured result alive so it is not optimized away.
var sinkMessage *Message
