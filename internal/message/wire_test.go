package message

import (
	"bytes"
	"testing"
)

// within reports whether b's first byte lies in storage.
func within(b, storage []byte) bool {
	if len(b) == 0 || len(storage) == 0 {
		return false
	}
	for i := range storage {
		if &storage[i] == &b[0] {
			return true
		}
	}
	return false
}

// TestWire holds Wire to its promise for every way a message is made:
// the image equals Marshal's bytes; it is rendered in place exactly
// when the record holds it (headers against a frozen or empty body, the
// header length's room in front, all of it the message's), and in one
// fresh buffer otherwise; a second render returns the same bytes and
// neither writes nor allocates; and nothing done to the message or a
// clone afterwards — pushes, pops, a new body, another render — writes
// the returned bytes.
func TestWire(t *testing.T) {
	body := []byte("the application's body")
	hdr := []byte{7, 0x81, 0x02, 'h'}
	push := func(m *Message) *Message {
		m.PushUint(1 << 20)
		m.Push(hdr)
		m.PushUint8(3)
		return m
	}
	record := func(b []byte, room int) (*Message, []byte) {
		rec := make([]byte, room+72)
		m := New(b)
		m.AttachRecord(rec, room)
		return m, rec
	}
	received := func() *Message {
		m, err := Unmarshal(push(New(body)).Marshal())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name    string
		build   func() (m *Message, storage []byte) // storage: where an in-place image lies
		inPlace bool
	}{
		{"record room with a body", func() (*Message, []byte) {
			m, rec := record(body, 32)
			return push(m), rec
		}, true},
		{"record room, empty body", func() (*Message, []byte) {
			m, rec := record(nil, 32)
			return push(m), rec
		}, true},
		{"record room, no headers", func() (*Message, []byte) { return record(body, 32) }, true},
		{"headroom and no body, as a layer's send record", func() (*Message, []byte) {
			room := make([]byte, 48)
			m := New(nil)
			m.AttachHeadroom(room)
			return push(m), room
		}, true},
		{"New with no room", func() (*Message, []byte) { return push(New(body)), nil }, false},
		{"New, empty body", func() (*Message, []byte) {
			m := push(New(nil))
			return m, m.buf
		}, true},
		{"NewWithHeadroom", func() (*Message, []byte) { return push(NewWithHeadroom(32, body)), nil }, false},
		{"NewWithHeadroom, empty body", func() (*Message, []byte) {
			m := push(NewWithHeadroom(32, nil))
			return m, m.buf
		}, true},
		{"clone before pushes", func() (*Message, []byte) {
			m, _ := record(body, 32)
			c := m.Clone()
			push(m)
			return push(c), nil
		}, false},
		{"clone after pushes", func() (*Message, []byte) {
			m, _ := record(body, 32)
			return push(m).Clone(), nil
		}, false},
		{"the original after its clone", func() (*Message, []byte) {
			m, rec := record(body, 32)
			push(m).Clone()
			return m, rec
		}, true},
		{"CopyFrom, as a retransmission", func() (*Message, []byte) {
			src, _ := record(body, 32)
			m := New(nil)
			m.AttachHeadroom(make([]byte, 64))
			m.CopyFrom(push(src))
			m.PushUint8(9)
			return m, nil
		}, false},
		{"Attach of a received image", func() (*Message, []byte) { return received(), nil }, false},
		{"a received image, pushed onto", func() (*Message, []byte) { return push(received()), nil }, false},
		{"FromParts", func() (*Message, []byte) { return FromParts(hdr, body), nil }, false},
		{"a push that outgrows its room", func() (*Message, []byte) {
			m, _ := record(body, 4)
			return push(m), nil
		}, false},
		{"headers that fill the room to its first byte", func() (*Message, []byte) {
			m, _ := record(body, 8)
			return push(m), nil
		}, false},
		{"an unfrozen body against the headers", func() (*Message, []byte) {
			storage := make([]byte, 32+len(body))
			copy(storage[32:], body)
			m := New(storage[32:])
			m.AttachHeadroom(storage[:32])
			return push(m), nil
		}, false},
		{"a shared piece behind a send record", func() (*Message, []byte) {
			m := New(nil)
			m.AttachHeadroom(make([]byte, 48))
			m.SetSharedBody(body[4:12])
			return push(m), nil
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, storage := tc.build()
			want := m.Marshal()
			img := m.Wire()
			if !bytes.Equal(img, want) {
				t.Fatalf("Wire = %x, Marshal = %x", img, want)
			}
			if got := within(img, storage); got != tc.inPlace {
				t.Errorf("rendered in place: %v, want %v", got, tc.inPlace)
			}
			var built *Message
			extra := testing.AllocsPerRun(10, func() { built, _ = tc.build(); built.Wire() }) -
				testing.AllocsPerRun(10, func() { built, _ = tc.build() })
			if want := map[bool]float64{true: 0, false: 1}[tc.inPlace]; extra != want {
				t.Errorf("Wire: %v allocations, want %v", extra, want)
			}
			sent := append([]byte(nil), img...)

			if again := m.Wire(); len(again) != len(img) || &again[0] != &img[0] {
				t.Fatal("a second render returned other bytes")
			}
			if n := testing.AllocsPerRun(10, func() { m.Wire() }); n != 0 {
				t.Errorf("a second render: %v allocations, want 0", n)
			}
			if !Equal(m, FromParts(split(sent))) {
				t.Fatalf("rendering changed the message: %x|%x", m.Header(), m.Body())
			}

			c := m.Clone()
			c.PushUint(1 << 40)
			m.PushUint8(0xEE)
			m.PushBytes([]byte("more"))
			if !bytes.Equal(m.Wire(), m.Marshal()) {
				t.Error("a render after pushes differs from Marshal")
			}
			c.PopUint()
			c.PushUint8(0xDD)
			c.Wire()
			m.SetBody([]byte("another body"))
			m.PushUint8(0xCC)
			m.Wire()
			if !bytes.Equal(img, sent) {
				t.Fatalf("the returned image was written:\n sent %x\n now  %x", sent, img)
			}
		})
	}
}

// TestWireRendersAtEveryOffset renders a record message with header
// stacks around the length at which the header length takes a second
// byte (128): every image equals Marshal's, and exactly the stacks that
// leave the length its one or two bytes of room are rendered in place.
func TestWireRendersAtEveryOffset(t *testing.T) {
	const room = 130
	body := bytes.Repeat([]byte{0x5A}, 72)
	for n := 120; n <= room; n++ {
		rec := make([]byte, room+len(body))
		m := New(body)
		m.AttachRecord(rec, room)
		m.Push(bytes.Repeat([]byte{byte(n)}, n))
		want := m.Marshal()
		img := m.Wire()
		if !bytes.Equal(img, want) {
			t.Fatalf("%d header bytes: Wire = %x, Marshal = %x", n, img, want)
		}
		if got, fits := within(img, rec), n+UintLen(uint64(n)) <= room; got != fits {
			t.Errorf("%d header bytes in %d of room: in place %v, want %v", n, room, got, fits)
		}
	}
}
