package netsim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/frag"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/layers/nfrag"
	"horus/internal/message"
	"horus/internal/property"
	"horus/internal/stackreg"
)

// Send hands the wire image it is given to every destination without a
// copy, and each receiver's message is a view of it. The image is most
// often the sender's own storage: the slab bytes a cast's body was
// copied into, or those a layer built a control message in, with
// the headers pushed in front of the body and the header length in
// front of them (message.Wire). That is sound only if nothing writes
// those bytes again — no layer above the transport at a receiver, and
// no layer, retained copy or application at the sender. The audit below
// keeps every image with a copy of what it held when it was sent and
// compares the two after the run: a receiving layer that decrypts,
// restores a header or patches a field in place would corrupt what the
// other receivers read, and a sending one that pushes, pops or patches
// a message it has handed down, or retransmits or forwards it in place,
// would corrupt what is in flight; either fails here.

type sendAudit struct {
	shared [][]byte
	sent   [][]byte
}

func (a *sendAudit) record(wire []byte) {
	a.shared = append(a.shared, wire)
	a.sent = append(a.sent, append([]byte(nil), wire...))
}

func (a *sendAudit) verify(t *testing.T, what string) {
	t.Helper()
	for i, buf := range a.shared {
		if !bytes.Equal(buf, a.sent[i]) {
			t.Fatalf("send %d of %d: %s\n sent %x\n now  %x",
				i, len(a.shared), what, a.sent[i], buf)
		}
	}
}

// faulty turns on every per-packet rule at once: loss, duplication and
// reordering keep the shared buffer in flight for longer and deliver it
// more than once; garbling delivers private damaged copies beside it —
// with or without a CHKSUM layer to catch them, so the layers of half
// the stacks below parse damaged headers.
var faulty = Link{
	Delay: time.Millisecond, Jitter: 500 * time.Microsecond,
	LossRate: 0.05, DupRate: 0.05, ReorderRate: 0.05, GarbleRate: 0.05,
}

// auditStacks names every registered layer that handles data at least
// once, in compositions the property calculus accepts.
var auditStacks = []string{
	"NAK:COM",
	"NNAK:CHKSUM:COM",
	"NAK:SIGN:CRYPT:COMPRESS:CHKSUM:COM",
	"TRACE:ACCOUNT:MLOG:FRAG:NAK:COM",
	"FC:NAK:NFRAG:CHKSUM:COM",
	"ADAPT:NAK:COM",
	"TOTAL:MBRSHIP:FRAG:NAK:COM",
	"TOTAL:MBRSHIP:FRAG:NAK:CHKSUM:COM",
	"SAFE:STABLE:MBRSHIP:FRAG:NAK:COM",
	"CAUSAL:TSTAMP:MBRSHIP:FRAG:NAK:CHKSUM:COM",
	"PINWHEEL:MBRSHIP:FRAG:NAK:COM",
	"MERGE:MBRSHIP:FRAG:HBEAT:NAK:CHKSUM:COM",
	"TOTAL:GKEY:MBRSHIP:FRAG:NAK:COM",
	"FLUSH:STABLE:BMS:FRAG:NAK:CHKSUM:COM",
	"VSS:STABLE:BMS:FRAG:NAK:COM",
	"SWITCH:MBRSHIP:FRAG:NAK:COM",
}

// cluster is three members of one group on a network under audit.
type cluster struct {
	net    *Network
	audit  *sendAudit
	eps    []*core.Endpoint
	groups []*core.Group
	casts  []int // CAST upcalls each member saw
	sends  []int // SEND upcalls each member saw
}

func newCluster(t *testing.T, desc string, seed int64, onEvent func(member int, ev *core.Event)) *cluster {
	t.Helper()
	c := &cluster{
		net:   New(Config{Seed: seed, DefaultLink: Link{Delay: time.Millisecond}}),
		audit: &sendAudit{},
	}
	c.net.sendAudit = c.audit.record // before any traffic: Send reads it unlocked
	for i, site := range []string{"a", "b", "c"} {
		spec, err := stackreg.Build(desc, property.P1)
		if err != nil {
			t.Fatal(err)
		}
		i := i
		ep := c.net.NewEndpoint(site)
		c.casts, c.sends = append(c.casts, 0), append(c.sends, 0)
		g, err := ep.Join("grp", spec, func(ev *core.Event) {
			switch ev.Type {
			case core.UCast:
				c.casts[i]++
			case core.USend:
				c.sends[i]++
			}
			if onEvent != nil {
				onEvent(i, ev)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		c.eps, c.groups = append(c.eps, ep), append(c.groups, g)
	}
	return c
}

// fragmented returns how many messages the members' FRAG or NFRAG
// layers have split into fragments.
func (c *cluster) fragmented() int {
	n := 0
	for _, g := range c.groups {
		if f, ok := g.Focus("FRAG").(*frag.Frag); ok {
			n += f.Stats().Fragmented
		}
		if f, ok := g.Focus("NFRAG").(*nfrag.Nfrag); ok {
			n += f.Stats().Fragmented
		}
	}
	return n
}

// mergeInto forms a's view with member in it, running the network
// for 3 s.
func (c *cluster) mergeInto(t *testing.T, member int) {
	t.Helper()
	if err := c.net.Form([]*core.Group{c.groups[0], c.groups[member]}, 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestReceiversNeverWriteSharedWire audits every image sent while the
// stacks carry casts and sends under every fault the link has. The
// image is the sender's record as much as the receivers' buffer, so
// the audit holds both sides to it: neither writes a byte once sent.
func TestReceiversNeverWriteSharedWire(t *testing.T) {
	for _, desc := range auditStacks {
		desc := desc
		t.Run(desc, func(t *testing.T) {
			c := newCluster(t, desc, 29, nil)
			if err := c.net.Form(c.groups, 6*time.Second); err != nil {
				t.Fatal(err)
			}

			// Traffic under faults: small casts, and every fifth one big
			// enough that FRAG and NFRAG split and reassemble it. Every
			// third also goes as a send to one other member and every
			// fourth to both, which NAK and the layers under it sequence
			// and frame on the sender's own message: the bodies handed in
			// are audited like the wire buffers.
			c.net.SetDefaultLink(faulty)
			formed := len(c.audit.shared)
			base := c.net.Now()
			handed := &sendAudit{}
			for i := 0; i < 30; i++ {
				i := i
				c.net.At(base+time.Duration(i)*4*time.Millisecond, func() {
					body := []byte(fmt.Sprintf("cast %d from %d", i, i%3))
					if i%5 == 0 {
						body = bytes.Repeat(body, 200)
					}
					c.groups[i%3].Cast(message.New(body))
					next, other := c.eps[(i+1)%3].ID(), c.eps[(i+2)%3].ID()
					if i%3 == 0 {
						one := append([]byte("to one: "), body...)
						handed.record(one)
						c.groups[i%3].Send([]core.EndpointID{next}, message.New(one))
					}
					if i%4 == 0 {
						two := append([]byte("to two: "), body...)
						handed.record(two)
						c.groups[i%3].Send([]core.EndpointID{next, other}, message.New(two))
					}
				})
			}
			c.net.RunFor(3 * time.Second)

			if sends := len(c.audit.shared) - formed; sends < 30 {
				t.Fatalf("only %d sends audited under faults", sends)
			}
			if c.casts[0]+c.casts[1]+c.casts[2] == 0 {
				t.Fatal("no cast was delivered: the run exercised nothing")
			}
			if c.sends[0]+c.sends[1]+c.sends[2] == 0 {
				t.Fatal("no send was delivered: the in-place path was not exercised")
			}
			if strings.Contains(desc, "FRAG") && c.fragmented() == 0 {
				t.Fatal("no message was split: no fragment was audited")
			}
			if c.net.Stats().Lost == 0 {
				t.Fatal("the link lost nothing")
			}
			c.audit.verify(t, "a receiver wrote through the shared wire buffer")
			handed.verify(t, "the sending stack wrote to the body the application handed in")
		})
	}
}

// TestBodyReusedAfterCastNeverWritesSharedWire: message.New lets the
// application reuse a cast's body once the downcall has run, as it has
// when Cast returns outside a handler. A body that fits the downcall
// record was copied there and frozen, so the wire images carry the
// record's bytes, not the application's buffer; a larger one is frozen
// by whatever keeps it, a layer that retains it or the downcall's end
// for a layer that parks it (TOTAL until the token comes). Every member
// casts from one buffer of its own, overwrites it the moment Cast
// returns, and casts from it again: every delivered body must be what
// was cast, and no wire image may change. Bodies that fit the record
// and bodies that do not are cast, under loss, duplication and
// reordering, which keep images in flight and retained copies in use
// long after the buffer has changed.
func TestBodyReusedAfterCastNeverWritesSharedWire(t *testing.T) {
	lossy := Link{Delay: time.Millisecond, Jitter: 500 * time.Microsecond, LossRate: 0.05, DupRate: 0.05, ReorderRate: 0.05}
	for _, desc := range auditStacks {
		desc := desc
		t.Run(desc, func(t *testing.T) {
			cast := map[string]bool{}
			delivered := 0
			c := newCluster(t, desc, 41, func(member int, ev *core.Event) {
				if ev.Type != core.UCast {
					return
				}
				if body := string(ev.Msg.Body()); !cast[body] {
					t.Errorf("member %d delivered %q, which nobody cast", member, body)
				}
				delivered++
			})
			if err := c.net.Form(c.groups, 6*time.Second); err != nil {
				t.Fatal(err)
			}
			c.net.SetDefaultLink(lossy)
			bufs := make([][]byte, len(c.groups))
			base := c.net.Now()
			for i := 0; i < 45; i++ {
				i := i
				c.net.At(base+time.Duration(i)*3*time.Millisecond, func() {
					s := i % 3
					body := fmt.Sprintf("cast %d from %d ", i, s)
					body += strings.Repeat(".", []int{60, 1000}[i/3%2]-len(body)) // in the record and not
					cast[body] = true
					bufs[s] = append(bufs[s][:0], body...)
					c.groups[s].Cast(message.New(bufs[s]))
					for j := range bufs[s] {
						bufs[s][j] = 0xEE
					}
				})
			}
			c.net.RunFor(3 * time.Second)
			if delivered == 0 {
				t.Fatal("no cast was delivered: the run exercised nothing")
			}
			c.audit.verify(t, "a wire image changed after it was sent")
		})
	}
}

// TestFlushForwardsAndRetransmitsNeverWriteSharedWire drives the two
// places where a sender's stack sends again what it has kept: NAK
// retransmits from its ring, over a lossy link, and a crash makes
// MBRSHIP's flush forward the casts it logged. The kept messages share
// their headers and bodies with images already in flight; none of
// those images may change. Every fifth cast is large enough that FRAG
// splits it, so what NAK keeps and sends again includes fragments,
// whose images lie in the buffer their cast was cut into.
func TestFlushForwardsAndRetransmitsNeverWriteSharedWire(t *testing.T) {
	const desc = "TOTAL:MBRSHIP:FRAG:NAK:COM"
	c := newCluster(t, desc, 43, nil)
	if err := c.net.Form(c.groups, 6*time.Second); err != nil {
		t.Fatal(err)
	}
	c.net.SetDefaultLink(Link{Delay: time.Millisecond, Jitter: 300 * time.Microsecond, LossRate: 0.1})
	base := c.net.Now()
	for i := 0; i < 150; i++ {
		i := i
		c.net.At(base+time.Duration(i)*2*time.Millisecond, func() {
			body := []byte(fmt.Sprintf("cast %d", i))
			if i%5 == 0 {
				body = bytes.Repeat(body, 400)
			}
			c.groups[i%3].Cast(message.New(body))
		})
	}
	c.net.At(base+150*time.Millisecond, func() { c.net.Crash(c.eps[2].ID()) })
	c.net.RunFor(10 * time.Second)

	var retransmits, forwards int
	for _, g := range c.groups[:2] {
		retransmits += g.Focus("NAK").(*nak.Nak).Stats().Retransmits
		forwards += g.Focus("MBRSHIP").(*mbrship.Mbrship).Stats().FwdsSent
		if v := g.View(); v == nil || v.Size() != 2 {
			t.Fatalf("a survivor ended in view %v, not the two survivors'", v)
		}
	}
	t.Logf("%d retransmissions, %d flush forwards, %d images audited", retransmits, forwards, len(c.audit.shared))
	if retransmits == 0 || forwards == 0 {
		t.Fatalf("%d retransmissions and %d flush forwards: the run did not exercise both", retransmits, forwards)
	}
	if c.fragmented() == 0 {
		t.Fatal("no cast was split: no fragment was audited")
	}
	c.audit.verify(t, "an image changed after it was sent")
}

// TestHeldFragmentsAreNeverWritten audits what FRAG holds between the
// first fragment of a message and its last: views of the wire buffers
// the fragments arrived in, which the other receivers read too and which
// duplication and reordering deliver again while they are held. Sixty
// casts of 16 KiB, 17 fragments each, cross a link that loses,
// duplicates, reorders and garbles (CHKSUM drops the damaged copies, so
// what is delivered must be exact): every member delivers every
// member's casts, its own included, in order, byte for byte — a held
// view written or reused before the one copy would show in a body — and
// no wire buffer has changed since it was sent.
func TestHeldFragmentsAreNeverWritten(t *testing.T) {
	const casts = 60
	body := func(i int) []byte {
		b := make([]byte, 16<<10)
		for j := range b {
			b[j] = byte(i*31 + j*7 + j>>8)
		}
		return b
	}
	var c *cluster
	owed := [3][3]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}} // owed[member][sender]: the next cast of sender's due at member
	c = newCluster(t, "FRAG:NAK:CHKSUM:COM", 37, func(member int, ev *core.Event) {
		switch ev.Type {
		case core.UCast:
			sender := 0
			for i, ep := range c.eps {
				if ep.ID() == ev.Source {
					sender = i
				}
			}
			i := owed[member][sender]
			owed[member][sender] += 3
			if !bytes.Equal(ev.Msg.Body(), body(i)) {
				t.Errorf("member %d: cast %d of member %d arrived damaged or out of order", member, i, sender)
			}
		case core.ULostMessage, core.USystemError:
			t.Errorf("member %d: %v", member, ev)
		}
	})
	core.InstallView(c.groups...)
	c.net.SetDefaultLink(Link{
		Delay: time.Millisecond, Jitter: 500 * time.Microsecond,
		LossRate: 0.03, DupRate: 0.15, ReorderRate: 0.15, GarbleRate: 0.05,
	})
	for i := 0; i < casts; i++ {
		i := i
		c.net.At(c.net.Now()+time.Duration(i)*5*time.Millisecond, func() { c.groups[i%3].Cast(message.New(body(i))) })
	}
	c.net.RunFor(5 * time.Second)
	for member, row := range owed {
		for sender, next := range row {
			if next != casts+sender {
				t.Errorf("member %d delivered %d of member %d's %d casts", member, (next-sender)/3, sender, casts/3)
			}
		}
	}
	if st := c.net.Stats(); st.Lost == 0 || st.Duplicated == 0 || st.Reordered == 0 || st.Garbled == 0 {
		t.Errorf("the link did not misbehave as asked: %+v", st)
	}
	c.audit.verify(t, "a receiver wrote through a wire buffer, held or not")
}

// TestFutureViewDataDoesNotWriteSharedWire drives MBRSHIP's one place
// that pushes onto a received message. c joins {a, b}; the coordinator
// a reaches b slowly, so c — which casts the moment it installs the new
// view — gets data to b an epoch ahead of b's own view. b pops the view
// tag, sees the future, pushes the headers back on and parks the event
// until the view arrives. The pushes land on a message that views the
// buffer a and c received too.
func TestFutureViewDataDoesNotWriteSharedWire(t *testing.T) {
	var c *cluster
	var castAt, viewAtB, gotAtB time.Duration
	c = newCluster(t, "MBRSHIP:FRAG:NAK:COM", 31, func(member int, ev *core.Event) {
		switch {
		case member == 2 && ev.Type == core.UView && ev.View.Size() == 3 && castAt == 0:
			castAt = c.net.Now()
			c.groups[2].Cast(message.New([]byte("ahead of the view")))
		case member == 1 && ev.Type == core.UView && ev.View.Size() == 3:
			viewAtB = c.net.Now()
		case member == 1 && ev.Type == core.UCast && string(ev.Msg.Body()) == "ahead of the view":
			gotAtB = c.net.Now()
		}
	})
	c.mergeInto(t, 1)
	c.net.SetLinkDirected(c.eps[0].ID(), c.eps[1].ID(), Link{Delay: 40 * time.Millisecond})
	c.mergeInto(t, 2)

	if castAt == 0 || viewAtB == 0 || gotAtB == 0 {
		t.Fatalf("scenario did not play out: c cast at %v, b installed at %v, b delivered at %v", castAt, viewAtB, gotAtB)
	}
	// The cast reached b a link delay after it was sent — well before
	// b's view — yet b delivered it, and only once the view was in: it
	// was parked and replayed, not dropped as stale.
	if arrived := castAt + 2*time.Millisecond; arrived >= viewAtB {
		t.Fatalf("cast reached b at about %v, not ahead of its view at %v: the future path did not run", arrived, viewAtB)
	}
	if gotAtB < viewAtB {
		t.Fatalf("b delivered the cast at %v, before installing the view at %v", gotAtB, viewAtB)
	}
	c.audit.verify(t, "a receiver wrote through the shared wire buffer")
}
