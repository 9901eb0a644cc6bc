package message

import (
	"bytes"
	"math"
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
	m.PushUint(0xCDEF)
	m.PushUint(0x12345678)
	m.PushUint(0x1122334455667788)
	m.PushUint(0)
	for _, want := range []uint64{0, 0x1122334455667788, 0x12345678, 0xCDEF} {
		if got := m.PopUint(); got != want {
			t.Errorf("PopUint = %#x, want %#x", got, want)
		}
	}
	if got := m.PopUint8(); got != 0xAB {
		t.Errorf("PopUint8 = %#x", got)
	}
}

// PushUint writes unsigned LEB128, as encoding/binary's Uvarint reads
// it, and takes exactly UintLen bytes.
func TestUintEncoding(t *testing.T) {
	for _, tc := range []struct {
		v    uint64
		want []byte
	}{
		{0, []byte{0x00}},
		{1, []byte{0x01}},
		{127, []byte{0x7F}},
		{128, []byte{0x80, 0x01}},
		{300, []byte{0xAC, 0x02}},
		{1<<14 - 1, []byte{0xFF, 0x7F}},
		{1 << 14, []byte{0x80, 0x80, 0x01}},
		{math.MaxUint64, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}},
	} {
		m := New(nil)
		m.PushUint(tc.v)
		if !bytes.Equal(m.Header(), tc.want) || UintLen(tc.v) != len(tc.want) {
			t.Errorf("PushUint(%d) = %x (UintLen %d), want %x", tc.v, m.Header(), UintLen(tc.v), tc.want)
		}
	}
}

// PopUint reads any encoding Uvarint accepts, non-minimal ones too, and
// refuses with ShortRead one that does not end within the headers or
// within ten bytes — before it moves past a byte. PopBytes compares a
// decoded length with the remaining headers before it becomes an int.
func TestPopUintHostile(t *testing.T) {
	ff := func(n int) []byte { return bytes.Repeat([]byte{0xFF}, n) }
	for _, tc := range []struct {
		name string
		hdr  []byte
		want uint64 // when ok
		used int    // header bytes the integer takes, 0 for a refusal
	}{
		{"one byte", []byte{0x05, 0xEE}, 5, 1},
		{"maximum length", append(ff(9), 0x01, 0xEE), math.MaxUint64, 10},
		{"non-minimal zero", []byte{0x80, 0x00, 0xEE}, 0, 2},
		{"non-minimal one", []byte{0x81, 0x80, 0x80, 0x00, 0xEE}, 1, 4},
		{"empty", nil, 0, 0},
		{"truncated", []byte{0x80}, 0, 0},
		{"truncated after nine", ff(9), 0, 0},
		{"tenth byte overflows", append(ff(9), 0x02), 0, 0},
		{"eleven bytes", append(ff(10), 0x01), 0, 0},
	} {
		m := FromParts(tc.hdr, nil)
		var got uint64
		short := func() (short bool) {
			defer func() { _, short = recover().(ShortRead) }()
			got = m.PopUint()
			return false
		}()
		switch {
		case tc.used == 0 && (!short || m.HeaderLen() != len(tc.hdr)):
			t.Errorf("%s: PopUint of %x did not refuse it in place", tc.name, tc.hdr)
		case tc.used > 0 && (short || got != tc.want || m.HeaderLen() != len(tc.hdr)-tc.used):
			t.Errorf("%s: PopUint of %x = %d leaving %d bytes, want %d leaving %d", tc.name, tc.hdr, got, m.HeaderLen(), tc.want, len(tc.hdr)-tc.used)
		}
	}
	for _, n := range []uint64{2, 1 << 31, 1 << 32, math.MaxInt64, math.MaxUint64} {
		m := New(nil)
		m.Push([]byte("x"))
		m.PushUint(n)
		func() {
			defer func() {
				if _, short := recover().(ShortRead); !short {
					t.Errorf("PopBytes with length %d over one byte did not panic with a short read", n)
				}
			}()
			m.PopBytes()
		}()
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
		m.PushUint(uint64(i) << 20)
	}
	for i := 99; i >= 0; i-- {
		if got := m.PopUint(); got != uint64(i)<<20 {
			t.Fatalf("PopUint #%d = %d, want %d", 99-i, got, uint64(i)<<20)
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
	m.PushUint(42)
	m.PushString("frag")
	wire := m.Marshal()
	if len(wire) != m.WireLen() {
		t.Errorf("Marshal wrote %d bytes, WireLen says %d", len(wire), m.WireLen())
	}
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
	if v := got.PopUint(); v != 42 {
		t.Errorf("header 2 = %d", v)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []struct {
		name string
		wire []byte
	}{
		{"empty", nil},
		{"short", []byte{0x80}},
		{"header overruns", []byte{10, 1, 2}},
		{"eleven-byte length", append(bytes.Repeat([]byte{0xFF}, 10), 0x01, 1)},
		{"length 2^64-1", append(bytes.Repeat([]byte{0xFF}, 9), 0x01, 1, 2)},
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
	m.PushUint(7)
	n := m.HeaderLen()
	c := m.Clone()
	body[0] = 'X' // mutate original's shared body
	if c.Body()[0] != 'a' {
		t.Error("clone body shares storage with original")
	}
	m.PopUint()
	if c.HeaderLen() != n {
		t.Error("clone header affected by pop on original")
	}
	if v := c.PopUint(); v != 7 {
		t.Errorf("clone header = %d, want 7", v)
	}
}

// TestFreezeCopiesTheCallersBodyOnce: Freeze replaces the body New was
// given by a private copy, once, so the caller may reuse its buffer;
// a body nobody writes (NewShared, a received one) is kept as it is.
func TestFreezeCopiesTheCallersBodyOnce(t *testing.T) {
	body := []byte("abc")
	m := New(body)
	m.PushUint(7)
	m.Freeze()
	body[0] = 'X'
	if string(m.Body()) != "abc" || m.PopUint() != 7 {
		t.Errorf("frozen message reads %q: it still shares the caller's buffer or lost its header", m.Body())
	}
	if n := testing.AllocsPerRun(10, m.Freeze); n != 0 {
		t.Errorf("a second Freeze: %v allocations, want 0", n)
	}
	shared := NewShared(body)
	shared.Freeze()
	if &shared.Body()[0] != &body[0] {
		t.Error("Freeze copied a shared body")
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
		m.PushUint(uint64(b))
		m.PushUint(uint64(c))
		m.PushUint(d)
		return m.PopUint() == d && m.PopUint() == uint64(c) && m.PopUint() == uint64(b) && m.PopUint8() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
