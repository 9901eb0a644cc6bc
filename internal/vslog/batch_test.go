package vslog

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/wire"
)

// appendEntry appends one batch entry as PushBatch writes it, with an image
// given byte for byte.
func appendEntry(b []byte, origin core.EndpointID, seq uint64, image []byte) []byte {
	b = binary.AppendUvarint(b, origin.Birth)
	b = binary.AppendUvarint(b, uint64(len(origin.Site)))
	b = append(b, origin.Site...)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(len(image)))
	return append(b, image...)
}

// garbled returns batches PopBatch must refuse whole, by name: their
// count and body.
func garbled() map[string]struct {
	count uint64
	body  []byte
} {
	img := message.New([]byte("cast")).Marshal()
	two := appendEntry(appendEntry(nil, a, 1, img), b, 1, img)
	type batch = struct {
		count uint64
		body  []byte
	}
	return map[string]batch{
		"a truncated batch":                     {2, two[:len(two)-1]},
		"a count beyond the entries present":    {3, two},
		"an image length past the end":          {1, append(appendEntry(nil, a, 1, nil)[:4], 100, 0, 'x')},
		"a site length past the end":            {1, []byte{1, 9, 'a', 1, 1, 0}},
		"trailing bytes":                        {2, append(slices.Clone(two), 0)},
		"an image that is not a wire image":     {1, appendEntry(nil, a, 1, []byte{5, 'x'})},
		"an empty batch with a body":            {0, []byte{0}},
		"a count no body of this size can hold": {1 << 62, two},
	}
}

// A batch is read whole or refused whole: PopBatch checks every entry
// before Each applies any.
func TestPopBatchRefusesGarbage(t *testing.T) {
	for name, tc := range garbled() {
		t.Run(name, func(t *testing.T) {
			m := message.New(tc.body)
			m.PushUint(tc.count)
			if _, ok := PopBatch(m); ok {
				t.Fatal("read, want refused")
			}
		})
	}
}

// An exchange drops a DONE whose batch does not read and counts it: it
// delivers none of the DONE's forwards, and the DONE does not count
// toward the flush.
func TestExchangeDropsAGarbledDone(t *testing.T) {
	for name, tc := range garbled() {
		t.Run(name, func(t *testing.T) {
			h := newBooks(t, p1)
			h.InjectUp(&core.Event{Type: core.UFlush, Detail: &core.Detail{}})
			m := message.New(tc.body)
			m.PushUint(tc.count)
			wire.PushIDList(m, nil)
			m.PushUint8(kDone)
			h.InjectUp(&core.Event{Type: core.USend, Msg: m, Source: p1})
			x := &h.G.Focus("BOOKS").(*books).x
			if x.Malformed != 1 || len(h.UpOfType(core.UCast)) != 0 || len(h.DownOfType(core.DFlushOK)) != 0 {
				t.Fatalf("malformed %d, delivered %d, consented %d; want the DONE counted and dropped whole",
					x.Malformed, len(h.UpOfType(core.UCast)), len(h.DownOfType(core.DFlushOK)))
			}
		})
	}
}

// randomLog fills a log from rng: a few origins, each with casts of
// random headers and bodies, numbered upward from a random start.
func randomLog(rng *rand.Rand) *Log {
	var l Log
	for range rng.Intn(5) {
		site := make([]byte, rng.Intn(200))
		rng.Read(site)
		origin := core.EndpointID{Site: string(site), Birth: rng.Uint64() >> rng.Intn(64)}
		seq := rng.Uint64() >> rng.Intn(64)
		for range rng.Intn(20) {
			body, hdr := make([]byte, rng.Intn(300)), make([]byte, rng.Intn(200))
			rng.Read(body)
			rng.Read(hdr)
			msg := message.New(body)
			msg.Push(hdr)
			seq++
			l.Add(origin, seq, msg)
		}
	}
	return &l
}

// FuzzForwardBatch checks the batch reader against arbitrary bytes,
// which it refuses or reads and never panics on, and the writer and
// reader together: a random log, written and read, gives back every
// entry exactly, in the log's order.
func FuzzForwardBatch(f *testing.F) {
	img := message.New([]byte("cast")).Marshal()
	f.Add(int64(1), uint64(2), appendEntry(appendEntry(nil, a, 1, img), b, 7, img))
	for _, tc := range garbled() {
		f.Add(int64(2), tc.count, tc.body)
	}
	f.Fuzz(func(t *testing.T, seed int64, count uint64, body []byte) {
		m := message.New(body)
		m.PushUint(count)
		if batch, ok := PopBatch(m); ok {
			n := 0
			batch.Each(nil, func(_ core.EndpointID, _ uint64, image []byte) {
				if _, err := message.Unmarshal(image); err != nil {
					t.Fatalf("entry %d of a batch that read: %v", n, err)
				}
				n++
			})
			if uint64(n) != count || batch.Len() != n {
				t.Fatalf("a batch of %d read %d entries, Len %d", count, n, batch.Len())
			}
		}

		log := randomLog(rand.New(rand.NewSource(seed)))
		var want []string
		log.Each(func(origin core.EndpointID, seq uint64, msg *message.Message) {
			want = append(want, fmt.Sprintf("%q/%d/%d %x", origin.Site, origin.Birth, seq, msg.Marshal()))
		})
		m = message.New(nil)
		if n := PushBatch(m, log); n != log.Len() {
			t.Fatalf("PushBatch counted %d of %d entries", n, log.Len())
		}
		wireImage, err := message.Unmarshal(m.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		batch, ok := PopBatch(wireImage)
		if !ok {
			t.Fatal("a written batch does not read")
		}
		var got []string
		batch.Each(nil, func(origin core.EndpointID, seq uint64, image []byte) {
			got = append(got, fmt.Sprintf("%q/%d/%d %x", origin.Site, origin.Birth, seq, image))
		})
		if !slices.Equal(got, want) {
			t.Fatalf("read back\n%v\nwant\n%v", got, want)
		}
	})
}
