package message

// Slab is storage that byte slices are carved from and never given
// back: a chunk is replaced, never rewound, when it runs out. It serves
// bytes that pass on for good — udpnet's received payloads, which it
// hands to Endpoint.Deliver, and the header storage of the messages
// layers build, whose wire image passes to the transport and whose
// headers a retained copy keeps — at one allocation per SlabSize bytes
// instead of one per slice. No byte handed out is handed out again, and
// with its capacity clipped no append to one slice can reach the next.
// A slice that is kept keeps its whole chunk reachable, SlabSize at
// most; a request over a quarter of that gets an allocation of its own,
// so no chunk is spent on, or pinned by, a few large ones. The zero
// value is ready for use. A Slab is not safe for concurrent use.
type Slab struct{ free []byte }

// SlabSize is how much storage a Slab allocates at a time.
const SlabSize = 16 * 1024

// Take returns n zero bytes that nothing else holds.
func (s *Slab) Take(n int) []byte {
	if n > SlabSize/4 {
		return make([]byte, n)
	}
	if n > len(s.free) {
		s.free = make([]byte, SlabSize)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// Carve returns a copy of p that nothing else holds.
func (s *Slab) Carve(p []byte) []byte {
	out := s.Take(len(p))
	copy(out, p)
	return out
}

// Left returns how many bytes the current chunk has left.
func (s *Slab) Left() int { return len(s.free) }
