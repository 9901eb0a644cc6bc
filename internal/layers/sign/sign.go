// Package sign implements the signing layer of the paper's §2
// protocol-class example: a *cryptographic* checksum, "dependent on a
// secret key, making it impossible for a malignant intruder to
// impersonate a member process of the application".
//
// The layer appends an HMAC-SHA-256 tag computed over the message's
// wire form under a group-shared key; receivers recompute and drop
// forgeries. It subclasses the checksum idea exactly as the paper's
// class hierarchy describes.
package sign

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"

	"horus/internal/core"
)

// TagSize is the pushed MAC size in bytes.
const TagSize = sha256.Size

// Sign is one signing layer instance.
type Sign struct {
	core.Base
	key   []byte
	stats Stats
}

// Stats counts signing activity.
type Stats struct {
	Signed   int
	Verified int
	Rejected int // messages dropped for MAC mismatch
}

// New returns a factory for signing layers sharing the given secret
// key. All members of a group must be configured with the same key
// (key distribution is its own protocol type in Figure 1; here keys
// are pre-shared).
func New(key []byte) core.Factory {
	k := append([]byte(nil), key...)
	return func() core.Layer { return &Sign{key: k} }
}

// Name implements core.Layer.
func (s *Sign) Name() string { return "SIGN" }

// Stats returns a snapshot of the layer's counters.
func (s *Sign) Stats() Stats { return s.stats }

// Init implements core.Layer.
func (s *Sign) Init(c *core.Context) error {
	if err := s.Base.Init(c); err != nil {
		return err
	}
	if len(s.key) == 0 {
		return fmt.Errorf("sign: empty key")
	}
	return nil
}

func (s *Sign) mac(wire []byte) []byte {
	h := hmac.New(sha256.New, s.key)
	h.Write(wire)
	return h.Sum(nil)
}

// Down implements core.Layer.
func (s *Sign) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend, core.DLocate:
		ev.Msg.Push(s.mac(ev.Msg.Marshal()))
		s.stats.Signed++
		s.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("SIGN: signed=%d verified=%d rejected=%d",
			s.stats.Signed, s.stats.Verified, s.stats.Rejected))
		s.Ctx.Down(ev)
	default:
		s.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (s *Sign) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend, core.ULocate:
		if ev.Msg.HeaderLen() < TagSize {
			s.stats.Rejected++
			return
		}
		tag := append([]byte(nil), ev.Msg.Pop(TagSize)...)
		if !hmac.Equal(tag, s.mac(ev.Msg.Marshal())) {
			s.stats.Rejected++
			return
		}
		s.stats.Verified++
		s.Ctx.Up(ev)
	default:
		s.Ctx.Up(ev)
	}
}
