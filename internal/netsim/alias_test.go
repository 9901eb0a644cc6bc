package netsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/property"
	"horus/internal/stackreg"
)

// Send makes one copy of the wire image and hands that same buffer to
// every destination; each receiver's message is a view of it. That is
// sound only if nothing above the transport ever writes to a received
// header or body. The audit below keeps every shared buffer with a copy
// of what it held when it was sent and compares the two after the run:
// a layer that decrypts, restores a header or patches a field in place
// would corrupt what the other receivers read, and fails here.

type sendAudit struct {
	shared [][]byte
	sent   [][]byte
}

func (a *sendAudit) record(shared []byte) {
	a.shared = append(a.shared, shared)
	a.sent = append(a.sent, append([]byte(nil), shared...))
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
	views  []*core.View // last view each member installed
	casts  []int        // CAST upcalls each member saw
	sends  []int        // SEND upcalls each member saw
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
		c.views, c.casts, c.sends = append(c.views, nil), append(c.casts, 0), append(c.sends, 0)
		g, err := ep.Join("grp", spec, func(ev *core.Event) {
			switch ev.Type {
			case core.UView:
				c.views[i] = ev.View
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

// mergeInto retries member's merge toward a until its view has size
// members, the way every harness in this repository forms a group.
func (c *cluster) mergeInto(t *testing.T, member, size int) {
	t.Helper()
	var try func()
	try = func() {
		if v := c.views[member]; v != nil && v.Size() >= size {
			return
		}
		c.groups[member].Merge(c.eps[0].ID())
		c.net.At(c.net.Now()+150*time.Millisecond, try)
	}
	c.net.At(c.net.Now()+20*time.Millisecond, try)
	c.net.RunFor(3 * time.Second)
	if v := c.views[member]; v == nil || v.Size() < size { // MERGE may bring c in unasked
		t.Fatalf("member %d did not reach a view of %d: %v", member, size, v)
	}
}

func TestReceiversNeverWriteSharedWire(t *testing.T) {
	for _, desc := range auditStacks {
		desc := desc
		t.Run(desc, func(t *testing.T) {
			names := property.ParseStack(desc)
			membership := false
			for _, n := range names {
				if n == "MBRSHIP" || n == "BMS" {
					membership = true
				}
			}
			c := newCluster(t, desc, 29, nil)
			if membership {
				c.mergeInto(t, 1, 2)
				c.mergeInto(t, 2, 3)
			} else {
				ids := []core.EndpointID{c.eps[0].ID(), c.eps[1].ID(), c.eps[2].ID()}
				view := core.NewView(core.ViewID{Seq: 1, Coord: ids[0]}, "grp", ids)
				for _, g := range c.groups {
					g.InstallView(view)
				}
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
			c.audit.verify(t, "a receiver wrote through the shared wire buffer")
			handed.verify(t, "the sending stack wrote to the body the application handed in")
		})
	}
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
	ids := []core.EndpointID{c.eps[0].ID(), c.eps[1].ID(), c.eps[2].ID()}
	view := core.NewView(core.ViewID{Seq: 1, Coord: ids[0]}, "grp", ids)
	for _, g := range c.groups {
		g.InstallView(view)
	}
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
	if st := c.net.Stats(); st.Duplicated == 0 || st.Reordered == 0 || st.Garbled == 0 {
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
	c.mergeInto(t, 1, 2)
	c.net.SetLinkDirected(c.eps[0].ID(), c.eps[1].ID(), Link{Delay: 40 * time.Millisecond})
	c.mergeInto(t, 2, 3)

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
