package message

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPushPopRoundTrip(t *testing.T) {
	m := New([]byte("payload"))
	m.Push([]byte{1, 2, 3})
	m.Push([]byte{4, 5})
	if got := m.HeaderLen(); got != 5 {
		t.Fatalf("HeaderLen = %d, want 5", got)
	}
	if got := m.Pop(2); !bytes.Equal(got, []byte{4, 5}) {
		t.Fatalf("Pop(2) = %v, want [4 5]", got)
	}
	if got := m.Pop(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Pop(3) = %v, want [1 2 3]", got)
	}
	if got := m.HeaderLen(); got != 0 {
		t.Fatalf("HeaderLen after pops = %d, want 0", got)
	}
	if got := m.Body(); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Body = %q, want %q", got, "payload")
	}
}

func TestPopUnderflowPanics(t *testing.T) {
	defer func() {
		if r, short := recover().(ShortRead); !short || r != (ShortRead{Want: 2, Have: 1}) {
			t.Fatalf("Pop beyond header region panicked with %v, want ShortRead{2, 1}", r)
		}
	}()
	m := New(nil)
	m.PushUint8(7)
	m.Pop(2)
}

func TestIntegerHeaders(t *testing.T) {
	m := New(nil)
	m.PushUint8(0xAB)
	m.PushUint16(0xCDEF)
	m.PushUint32(0x12345678)
	m.PushUint64(0x1122334455667788)
	if got := m.PopUint64(); got != 0x1122334455667788 {
		t.Errorf("PopUint64 = %#x", got)
	}
	if got := m.PopUint32(); got != 0x12345678 {
		t.Errorf("PopUint32 = %#x", got)
	}
	if got := m.PopUint16(); got != 0xCDEF {
		t.Errorf("PopUint16 = %#x", got)
	}
	if got := m.PopUint8(); got != 0xAB {
		t.Errorf("PopUint8 = %#x", got)
	}
}

func TestBytesAndStringHeaders(t *testing.T) {
	m := New(nil)
	m.PushBytes([]byte("hello"))
	m.PushString("world")
	if got := m.PopString(); got != "world" {
		t.Errorf("PopString = %q", got)
	}
	if got := m.PopBytes(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("PopBytes = %q", got)
	}
}

func TestEmptyBytesHeader(t *testing.T) {
	m := New(nil)
	m.PushBytes(nil)
	if got := m.PopBytes(); len(got) != 0 {
		t.Errorf("PopBytes of empty push = %v, want empty", got)
	}
}

func TestGrowPreservesHeaders(t *testing.T) {
	m := NewWithHeadroom(2, []byte("b"))
	for i := 0; i < 100; i++ {
		m.PushUint32(uint32(i))
	}
	for i := 99; i >= 0; i-- {
		if got := m.PopUint32(); got != uint32(i) {
			t.Fatalf("PopUint32 #%d = %d, want %d", 99-i, got, i)
		}
	}
}

func TestAlignedPushPadsToWord(t *testing.T) {
	m := New(nil)
	m.PushAligned([]byte{0xFF}) // 1 byte of content -> 4 bytes on wire
	if got := m.HeaderLen(); got != 4 {
		t.Fatalf("aligned header length = %d, want 4", got)
	}
	if got := m.PopAligned(1); !bytes.Equal(got, []byte{0xFF}) {
		t.Fatalf("PopAligned = %v", got)
	}
	if m.HeaderLen() != 0 {
		t.Fatalf("residual header bytes after PopAligned: %d", m.HeaderLen())
	}
}

func TestAlignedPushExactWordNoPad(t *testing.T) {
	m := New(nil)
	m.PushAligned([]byte{1, 2, 3, 4})
	if got := m.HeaderLen(); got != 4 {
		t.Fatalf("aligned header length = %d, want 4 (no padding)", got)
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	m := New([]byte("the body"))
	m.PushUint32(42)
	m.PushString("frag")
	wire := m.Marshal()
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(m, got) {
		t.Fatalf("round trip mismatch: %v vs %v", m, got)
	}
	if s := got.PopString(); s != "frag" {
		t.Errorf("header 1 = %q", s)
	}
	if v := got.PopUint32(); v != 42 {
		t.Errorf("header 2 = %d", v)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []struct {
		name string
		wire []byte
	}{
		{"short", []byte{0, 0}},
		{"header overruns", []byte{0, 0, 0, 10, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Unmarshal(tc.wire); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestCloneIndependence(t *testing.T) {
	body := []byte("abc")
	m := New(body)
	m.PushUint32(7)
	c := m.Clone()
	body[0] = 'X' // mutate original's shared body
	if c.Body()[0] != 'a' {
		t.Error("clone body shares storage with original")
	}
	m.PopUint32()
	if c.HeaderLen() != 4 {
		t.Error("clone header affected by pop on original")
	}
	if v := c.PopUint32(); v != 7 {
		t.Errorf("clone header = %d, want 7", v)
	}
}

func TestStringDiagnostic(t *testing.T) {
	m := New([]byte{1, 2})
	m.PushUint8(0)
	if got := m.String(); got != "msg{hdr=1 body=2}" {
		t.Errorf("String = %q", got)
	}
}

// Property: for any sequence of pushed byte strings, popping returns
// them in reverse order with identical contents.
func TestQuickPushPopLIFO(t *testing.T) {
	f := func(chunks [][]byte, body []byte) bool {
		m := New(body)
		for _, c := range chunks {
			m.PushBytes(c)
		}
		for i := len(chunks) - 1; i >= 0; i-- {
			got := m.PopBytes()
			if !bytes.Equal(got, chunks[i]) {
				return false
			}
		}
		return m.HeaderLen() == 0 && bytes.Equal(m.Body(), body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Marshal/Unmarshal is the identity on (headers, body).
func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(hdr, body []byte) bool {
		m := New(body)
		m.Push(hdr)
		got, err := Unmarshal(m.Marshal())
		if err != nil {
			return false
		}
		return Equal(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: integer headers round-trip for arbitrary values.
func TestQuickIntegerRoundTrip(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64) bool {
		m := New(nil)
		m.PushUint8(a)
		m.PushUint16(b)
		m.PushUint32(c)
		m.PushUint64(d)
		return m.PopUint64() == d && m.PopUint32() == c && m.PopUint16() == b && m.PopUint8() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
