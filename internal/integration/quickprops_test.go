package integration

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/compress"
	"horus/internal/layers/crypt"
	"horus/internal/layers/frag"
	"horus/internal/layers/nak"
	"horus/internal/layers/nfrag"
	"horus/internal/layers/sign"
	"horus/internal/message"
	"horus/internal/netsim"
)

// Property-based end-to-end round trips: for arbitrary payloads (and
// where applicable arbitrary fragment sizes), what one endpoint casts
// is exactly what the other delivers, through transform-heavy stacks.

// roundTrip builds a fresh 2-member static stack, casts body, and
// returns b's single delivery (nil if none).
func roundTrip(t *testing.T, spec func() core.StackSpec, body []byte) []byte {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: 313})
	epA := net.NewEndpoint("a")
	epB := net.NewEndpoint("b")
	var got []byte
	ga, err := epA.Join("grp", spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := epB.Join("grp", spec(), func(ev *core.Event) {
		if ev.Type == core.UCast {
			got = append([]byte(nil), ev.Msg.Body()...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	core.InstallView(ga, gb)
	net.At(0, func() { ga.Cast(message.New(body)) })
	net.RunFor(time.Second)
	return got
}

func TestQuickFragRoundTripArbitraryBodies(t *testing.T) {
	f := func(body []byte, sizeSeed uint8) bool {
		size := 32 + int(sizeSeed)%480
		spec := func() core.StackSpec {
			return core.StackSpec{
				frag.NewWithSize(size),
				nak.NewWith(nak.WithSuspectAfter(0)),
				com.New,
			}
		}
		return bytes.Equal(roundTrip(t, spec, body), body) || len(body) == 0 && roundTrip(t, spec, body) == nil
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickNfragRoundTripArbitraryBodies(t *testing.T) {
	// NFRAG cuts at a fixed size, so the body is repeated up to 200
	// times to span from none to a dozen fragment boundaries.
	f := func(seed []byte, reps uint8) bool {
		body := bytes.Repeat(seed, 1+int(reps)%200)
		spec := func() core.StackSpec {
			return core.StackSpec{nfrag.New, com.New}
		}
		return bytes.Equal(roundTrip(t, spec, body), body) || len(body) == 0 && roundTrip(t, spec, body) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickSecurityPipelineRoundTrip(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	f := func(body []byte) bool {
		spec := func() core.StackSpec {
			return core.StackSpec{
				nak.NewWith(nak.WithSuspectAfter(0)),
				sign.New(key),
				crypt.New(key[:16]),
				compress.New,
				com.New,
			}
		}
		got := roundTrip(t, spec, body)
		if len(body) == 0 {
			return got == nil || len(got) == 0
		}
		return bytes.Equal(got, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
