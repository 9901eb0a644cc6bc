// Package integration exercises composed stacks end to end over the
// simulated network. Tests here correspond to the paper's Figure 1
// claim — layers stack at run time in many combinations — and to the
// behaviour of the §7 example stack.
package integration

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/chksum"
	"horus/internal/layers/com"
	"horus/internal/layers/frag"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
)

// collector gathers upcalls for assertions.
type collector struct {
	casts  []string
	sends  []string
	lost   int
	errors []string
	views  []*core.View
}

func (c *collector) handler() core.Handler {
	return func(ev *core.Event) {
		switch ev.Type {
		case core.UCast:
			c.casts = append(c.casts, string(ev.Msg.Body()))
		case core.USend:
			c.sends = append(c.sends, string(ev.Msg.Body()))
		case core.ULostMessage:
			c.lost++
		case core.USystemError:
			c.errors = append(c.errors, ev.Reason)
		case core.UView:
			c.views = append(c.views, ev.View)
		}
	}
}

// staticPair builds two endpoints with the given stack spec and a
// static two-member view installed on both.
func staticPair(t *testing.T, net *netsim.Network, spec core.StackSpec) (ga, gb *core.Group, ca, cb *collector) {
	t.Helper()
	epA := net.NewEndpoint("a")
	epB := net.NewEndpoint("b")
	ca, cb = &collector{}, &collector{}
	var err error
	ga, err = epA.Join("grp", spec, ca.handler())
	if err != nil {
		t.Fatal(err)
	}
	gb, err = epB.Join("grp", spec, cb.handler())
	if err != nil {
		t.Fatal(err)
	}
	core.InstallView(ga, gb)
	return ga, gb, ca, cb
}

func assertNoErrors(t *testing.T, name string, c *collector) {
	t.Helper()
	for _, e := range c.errors {
		t.Errorf("%s: SYSTEM_ERROR: %s", name, e)
	}
}

func TestPerfectNetworkCastDelivery(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 1})
	spec := core.StackSpec{nak.New, com.New}
	ga, _, ca, cb := staticPair(t, net, spec)

	for i := 0; i < 10; i++ {
		i := i
		net.At(time.Duration(i)*time.Millisecond, func() {
			ga.Cast(message.New([]byte(fmt.Sprintf("m%d", i))))
		})
	}
	net.RunUntil(time.Second)

	want := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9"}
	for name, c := range map[string]*collector{"a": ca, "b": cb} {
		assertNoErrors(t, name, c)
		if len(c.casts) != len(want) {
			t.Fatalf("%s: delivered %d casts, want %d: %v", name, len(c.casts), len(want), c.casts)
		}
		for i, w := range want {
			if c.casts[i] != w {
				t.Errorf("%s: cast[%d] = %q, want %q", name, i, c.casts[i], w)
			}
		}
	}
}

func TestLossyNetworkFIFORecovery(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 42, DefaultLink: netsim.Link{
		Delay:    time.Millisecond,
		Jitter:   2 * time.Millisecond,
		LossRate: 0.2,
		DupRate:  0.05,
	}})
	spec := core.StackSpec{nak.New, com.New}
	ga, _, _, cb := staticPair(t, net, spec)

	const n = 200
	for i := 0; i < n; i++ {
		i := i
		net.At(time.Duration(i)*time.Millisecond, func() {
			ga.Cast(message.New([]byte(fmt.Sprintf("m%04d", i))))
		})
	}
	net.RunUntil(5 * time.Second)

	assertNoErrors(t, "b", cb)
	if len(cb.casts) != n {
		t.Fatalf("b delivered %d casts, want %d (lost=%d)", len(cb.casts), n, cb.lost)
	}
	for i := range cb.casts {
		if want := fmt.Sprintf("m%04d", i); cb.casts[i] != want {
			t.Fatalf("b: cast[%d] = %q, want %q (FIFO violated)", i, cb.casts[i], want)
		}
	}
	if stats := net.Stats(); stats.Lost == 0 {
		t.Error("network dropped nothing; loss path untested")
	}
}

func TestGarblingDetectedByChecksum(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 7, DefaultLink: netsim.Link{
		Delay:      time.Millisecond,
		GarbleRate: 0.3,
	}})
	// CHKSUM protects the NAK header and payload; the filtering COM
	// drops packets whose source address was garbled below the
	// checksum ("filters out spurious messages from endpoints not in
	// its view", §7).
	spec := core.StackSpec{nak.New, chksum.New, com.NewFiltering}
	ga, gb, _, cb := staticPair(t, net, spec)

	const n = 100
	for i := 0; i < n; i++ {
		i := i
		net.At(time.Duration(i)*time.Millisecond, func() {
			ga.Cast(message.New([]byte(fmt.Sprintf("m%04d", i))))
		})
	}
	net.RunUntil(5 * time.Second)

	// Garbled copies must be dropped by CHKSUM and repaired by NAK:
	// full FIFO delivery with zero malformed-packet errors.
	assertNoErrors(t, "b", cb)
	if len(cb.casts) != n {
		t.Fatalf("b delivered %d casts, want %d", len(cb.casts), n)
	}
	for i := range cb.casts {
		if want := fmt.Sprintf("m%04d", i); cb.casts[i] != want {
			t.Fatalf("b: cast[%d] = %q, want %q", i, cb.casts[i], want)
		}
	}
	if stats := net.Stats(); stats.Garbled == 0 {
		t.Error("network garbled nothing; checksum path untested")
	}
	k := gb.Focus("CHKSUM").(*chksum.Chksum)
	if k.Stats().Dropped == 0 {
		t.Error("checksum layer dropped nothing despite garbling")
	}
	_ = ga
}

func TestFragmentationLargeMessages(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 3, DefaultLink: netsim.Link{
		Delay:    time.Millisecond,
		LossRate: 0.1,
	}})
	spec := core.StackSpec{frag.NewWithSize(128), nak.New, com.New}
	ga, gb, _, cb := staticPair(t, net, spec)

	// A large message spanning many fragments, with distinctive bytes.
	big := make([]byte, 10_000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	net.At(0, func() { ga.Cast(message.New(big)) })
	net.At(time.Millisecond, func() { ga.Cast(message.New([]byte("small"))) })
	net.RunUntil(5 * time.Second)

	assertNoErrors(t, "b", cb)
	if len(cb.casts) != 2 {
		t.Fatalf("b delivered %d casts, want 2", len(cb.casts))
	}
	if cb.casts[0] != string(big) {
		t.Errorf("large message corrupted in reassembly (len %d vs %d)", len(cb.casts[0]), len(big))
	}
	if cb.casts[1] != "small" {
		t.Errorf("small message after large = %q", cb.casts[1])
	}
	f := gb.Focus("FRAG").(*frag.Frag)
	if f.Stats().Fragmented != 0 {
		// Receiving side fragments nothing; check the sender.
		t.Errorf("receiver fragmented %d messages", f.Stats().Fragmented)
	}
	fs := ga.Focus("FRAG").(*frag.Frag)
	if fs.Stats().Fragmented != 1 || fs.Stats().Fragments < 80 {
		t.Errorf("sender frag stats = %+v, want 1 fragmented message in ~88 fragments", fs.Stats())
	}
}

func TestSubsetSendFIFO(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 9, DefaultLink: netsim.Link{
		Delay:    time.Millisecond,
		Jitter:   3 * time.Millisecond,
		LossRate: 0.15,
	}})
	spec := core.StackSpec{nak.New, com.New}

	epA := net.NewEndpoint("a")
	epB := net.NewEndpoint("b")
	epC := net.NewEndpoint("c")
	ca, cb, cc := &collector{}, &collector{}, &collector{}
	ga, err := epA.Join("grp", spec, ca.handler())
	if err != nil {
		t.Fatal(err)
	}
	gb, err := epB.Join("grp", spec, cb.handler())
	if err != nil {
		t.Fatal(err)
	}
	gc, err := epC.Join("grp", spec, cc.handler())
	if err != nil {
		t.Fatal(err)
	}
	core.InstallView(ga, gb, gc)

	const n = 50
	for i := 0; i < n; i++ {
		i := i
		net.At(time.Duration(i)*time.Millisecond, func() {
			ga.Send([]core.EndpointID{epB.ID()}, message.New([]byte(fmt.Sprintf("s%03d", i))))
		})
	}
	net.RunUntil(5 * time.Second)

	assertNoErrors(t, "b", cb)
	if len(cb.sends) != n {
		t.Fatalf("b received %d sends, want %d", len(cb.sends), n)
	}
	for i := range cb.sends {
		if want := fmt.Sprintf("s%03d", i); cb.sends[i] != want {
			t.Fatalf("b: send[%d] = %q, want %q (unicast FIFO violated)", i, cb.sends[i], want)
		}
	}
	if len(cc.sends) != 0 {
		t.Errorf("c received %d subset sends not addressed to it", len(cc.sends))
	}
	if len(cc.casts) != 0 {
		t.Errorf("c received %d casts, want 0", len(cc.casts))
	}
}

func TestPlaceholderOnTrimmedBuffer(t *testing.T) {
	// Cut B off while A casts more than NAK retains (1024 casts a
	// stream): by the time B asks for the old messages they are gone, so
	// NAK must answer with place holders surfacing as LOST_MESSAGE.
	const (
		retained = 1024
		sent     = 1400
	)
	net := netsim.New(netsim.Config{Seed: 5, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	spec := core.StackSpec{
		nak.NewWith(nak.WithSuspectAfter(0)),
		com.New,
	}
	ga, _, _, cb := staticPair(t, net, spec)

	// Drop everything toward B while A casts, ten casts a millisecond.
	ids := netIDs(net, "a", "b")
	net.SetLink(ids[0], ids[1], netsim.Link{Delay: time.Millisecond, LossRate: 1.0})
	for i := 0; i < sent; i++ {
		i := i
		net.At(time.Duration(i)*100*time.Microsecond, func() {
			ga.Cast(message.New([]byte(fmt.Sprintf("m%04d", i))))
		})
	}
	net.RunUntil(200 * time.Millisecond)
	// Heal the link and cast one more; B sees the gap and NAKs.
	net.SetLink(ids[0], ids[1], netsim.Link{Delay: time.Millisecond})
	last := fmt.Sprintf("m%04d", sent)
	net.At(net.Now(), func() { ga.Cast(message.New([]byte(last))) })
	net.RunUntil(3 * time.Second)

	if cb.lost == 0 {
		t.Fatalf("no LOST_MESSAGE upcalls; delivered %d casts", len(cb.casts))
	}
	// Messages still buffered at the sender (the retain window, plus
	// the trim hysteresis of a quarter) arrive in order after the
	// place-held range; the tail must end with the fresh cast and be
	// contiguous.
	n := len(cb.casts)
	if n < retained || n > retained+retained/4+1 {
		t.Fatalf("delivered %d casts, want the retained tail of about %d", n, retained)
	}
	for i, got := range cb.casts {
		if want := fmt.Sprintf("m%04d", sent+1-n+i); got != want {
			t.Fatalf("position %d of the %d delivered is %q, want %q (tail not contiguous)", i, n, got, want)
		}
	}
	if cb.casts[n-1] != last {
		t.Fatalf("final cast %q, want %q", cb.casts[n-1], last)
	}
}

// netIDs finds endpoint IDs by site name via a fresh dummy — netsim
// assigns Birth in attach order, so sites "a" and "b" are 1 and 2.
func netIDs(_ *netsim.Network, sites ...string) []core.EndpointID {
	out := make([]core.EndpointID, len(sites))
	for i, s := range sites {
		out[i] = core.EndpointID{Site: s, Birth: uint64(i + 1)}
	}
	return out
}
