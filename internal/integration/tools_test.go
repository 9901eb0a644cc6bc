package integration

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/merge"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/property"
	"horus/internal/socket"
	"horus/internal/stackreg"
	"horus/internal/tools"
)

// kvStore is a tiny deterministic state machine for RSM tests:
// commands are "key=value" assignments.
type kvStore struct {
	data map[string]string
	log  []string
}

func newKV() *kvStore { return &kvStore{data: map[string]string{}} }

func (k *kvStore) apply(cmd []byte) {
	k.log = append(k.log, string(cmd))
	s := string(cmd)
	for i := 0; i < len(s); i++ {
		if s[i] == '=' {
			k.data[s[:i]] = s[i+1:]
			return
		}
	}
}

func (k *kvStore) snapshot() []byte {
	// Replay log as the snapshot: simple and deterministic.
	var out []byte
	for _, c := range k.log {
		out = append(out, byte(len(c)))
		out = append(out, c...)
	}
	return out
}

func (k *kvStore) restore(state []byte) {
	for len(state) > 0 {
		n := int(state[0])
		k.apply(state[1 : 1+n])
		state = state[1+n:]
	}
}

// rsmMember bundles one RSM participant.
type rsmMember struct {
	ep  *core.Endpoint
	g   *core.Group
	kv  *kvStore
	rsm *tools.RSM
}

func newRSMMember(t *testing.T, net *netsim.Network, site string, creator bool) *rsmMember {
	t.Helper()
	m := &rsmMember{ep: net.NewEndpoint(site), kv: newKV()}
	m.rsm = tools.NewRSM(m.kv.apply, m.kv.snapshot, m.kv.restore)
	g, err := m.ep.Join("rsm", totalStack(), m.rsm.Handler())
	if err != nil {
		t.Fatal(err)
	}
	m.g = g
	m.rsm.Bind(g)
	if creator {
		m.rsm.Bootstrap()
	}
	return m
}

func TestRSMConvergesWithStateTransfer(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 101, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	a := newRSMMember(t, net, "a", true)
	b := newRSMMember(t, net, "b", false)
	net.At(50*time.Millisecond, func() { b.g.Merge(a.ep.ID()) })
	net.RunFor(time.Second)

	// a and b work; some commands land.
	base := net.Now()
	for i := 0; i < 10; i++ {
		i := i
		net.At(base+time.Duration(i)*5*time.Millisecond, func() {
			m := a
			if i%2 == 1 {
				m = b
			}
			m.rsm.Propose([]byte(fmt.Sprintf("k%d=v%d", i, i)))
		})
	}
	net.RunFor(time.Second)

	// A latecomer joins and must catch up via state transfer.
	c := newRSMMember(t, net, "c", false)
	net.At(net.Now()+20*time.Millisecond, func() { c.g.Merge(a.ep.ID()) })
	net.RunFor(2 * time.Second)

	// More commands after the join.
	base = net.Now()
	for i := 10; i < 16; i++ {
		i := i
		net.At(base+time.Duration(i)*5*time.Millisecond, func() {
			c.rsm.Propose([]byte(fmt.Sprintf("k%d=v%d", i, i)))
		})
	}
	net.RunFor(2 * time.Second)

	if !c.rsm.Synced() {
		t.Fatal("latecomer never synced")
	}
	for _, m := range []*rsmMember{a, b, c} {
		if len(m.kv.data) != 16 {
			t.Errorf("%s: %d keys, want 16 (%v)", m.ep.ID(), len(m.kv.data), m.kv.data)
		}
	}
	// Identical logs — the replicated-state-machine property.
	for i, cmd := range a.kv.log {
		if i < len(b.kv.log) && b.kv.log[i] != cmd {
			t.Fatalf("log divergence at %d: a=%q b=%q", i, cmd, b.kv.log[i])
		}
		if i < len(c.kv.log) && c.kv.log[i] != cmd {
			t.Fatalf("log divergence at %d: a=%q c=%q", i, cmd, c.kv.log[i])
		}
	}
}

func TestLockManagerMutualExclusionAndFailover(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 103, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	type member struct {
		ep *core.Endpoint
		g  *core.Group
		lm *tools.LockManager
	}
	mk := func(site string) *member {
		m := &member{ep: net.NewEndpoint(site), lm: tools.NewLockManager()}
		g, err := m.ep.Join("locks", totalStack(), m.lm.Handler())
		if err != nil {
			t.Fatal(err)
		}
		m.g = g
		m.lm.Bind(g)
		return m
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	net.At(50*time.Millisecond, func() { b.g.Merge(a.ep.ID()) })
	net.At(250*time.Millisecond, func() { c.g.Merge(a.ep.ID()) })
	net.RunFor(time.Second)

	// All three request the same lock; the total order arbitrates.
	base := net.Now()
	net.At(base, func() { a.lm.Request("L") })
	net.At(base+time.Millisecond, func() { b.lm.Request("L") })
	net.At(base+2*time.Millisecond, func() { c.lm.Request("L") })
	net.RunFor(500 * time.Millisecond)

	holders := 0
	var holder *member
	for _, m := range []*member{a, b, c} {
		if m.lm.HeldByMe("L") {
			holders++
			holder = m
		}
	}
	if holders != 1 {
		t.Fatalf("%d simultaneous holders, want 1", holders)
	}
	// Everyone agrees who holds it.
	for _, m := range []*member{a, b, c} {
		h, ok := m.lm.Holder("L")
		if !ok || h != holder.ep.ID() {
			t.Errorf("%s sees holder %v/%v, want %v", m.ep.ID(), h, ok, holder.ep.ID())
		}
	}

	// The holder crashes: the lock must fail over via the view change.
	net.At(net.Now(), func() { net.Crash(holder.ep.ID()) })
	net.RunFor(3 * time.Second)

	survivors := []*member{}
	for _, m := range []*member{a, b, c} {
		if m != holder {
			survivors = append(survivors, m)
		}
	}
	holders = 0
	for _, m := range survivors {
		if m.lm.HeldByMe("L") {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("after failover, %d holders among survivors, want 1", holders)
	}
	h0, ok0 := survivors[0].lm.Holder("L")
	h1, ok1 := survivors[1].lm.Holder("L")
	if !ok0 || !ok1 || h0 != h1 {
		t.Errorf("survivors disagree on holder: %v/%v vs %v/%v", h0, ok0, h1, ok1)
	}
}

func TestPrimaryBackupFailover(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 107, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	type member struct {
		ep      *core.Endpoint
		g       *core.Group
		pb      *tools.PrimaryBackup
		applied []string
	}
	mk := func(site string) *member {
		m := &member{ep: net.NewEndpoint(site)}
		m.pb = tools.NewPrimaryBackup(func(u []byte) { m.applied = append(m.applied, string(u)) })
		g, err := m.ep.Join("pb", vsStack(), m.pb.Handler())
		if err != nil {
			t.Fatal(err)
		}
		m.g = g
		m.pb.Bind(g)
		return m
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	net.At(50*time.Millisecond, func() { b.g.Merge(a.ep.ID()) })
	net.At(250*time.Millisecond, func() { c.g.Merge(a.ep.ID()) })
	net.RunFor(time.Second)

	if !a.pb.IsPrimary() {
		t.Fatal("oldest member is not primary")
	}
	base := net.Now()
	for i := 0; i < 6; i++ {
		i := i
		net.At(base+time.Duration(i)*10*time.Millisecond, func() {
			// Submit from backups too: they forward to the primary.
			[]*member{a, b, c}[i%3].pb.Submit([]byte(fmt.Sprintf("u%d", i)))
		})
	}
	net.RunFor(time.Second)

	// Primary crashes; the next member must take over and accept new
	// requests.
	net.At(net.Now(), func() { net.Crash(a.ep.ID()) })
	net.RunFor(3 * time.Second)
	if !b.pb.IsPrimary() {
		t.Fatal("backup did not take over after primary crash")
	}
	net.At(net.Now(), func() { c.pb.Submit([]byte("after")) })
	net.RunFor(time.Second)

	for _, m := range []*member{b, c} {
		if len(m.applied) == 0 || m.applied[len(m.applied)-1] != "after" {
			t.Errorf("%s: updates %v, want trailing %q", m.ep.ID(), m.applied, "after")
		}
	}
	if fmt.Sprint(b.applied) != fmt.Sprint(c.applied) {
		t.Errorf("survivor update streams differ:\n b: %v\n c: %v", b.applied, c.applied)
	}
}

// vsStack for primary-backup: virtual synchrony without TOTAL.
// (Defined in mbrship_test.go; reused here.)

func TestSocketFacade(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 109, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	epA := net.NewEndpoint("a")
	epB := net.NewEndpoint("b")
	sa, err := socket.Open(epA, "chat", vsStack(), 16)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := socket.Open(epB, "chat", vsStack(), 16)
	if err != nil {
		t.Fatal(err)
	}
	net.At(50*time.Millisecond, func() { sb.Merge(epA.ID()) })
	net.RunFor(time.Second)

	if v := sa.View(); v == nil || v.Size() != 2 {
		t.Fatalf("socket a view %v", sa.View())
	}
	net.At(net.Now(), func() { sa.Sendto([]byte("hello sockets")) })
	net.RunFor(500 * time.Millisecond)

	d, ok := sb.TryRecvfrom()
	if !ok || string(d.Data) != "hello sockets" || d.From != epA.ID() {
		t.Fatalf("recvfrom = %+v %v", d, ok)
	}
	// Self-delivery surfaces at the sender's socket too.
	d, ok = sa.TryRecvfrom()
	if !ok || string(d.Data) != "hello sockets" {
		t.Fatalf("sender recvfrom = %+v %v", d, ok)
	}
	// Unicast path.
	net.At(net.Now(), func() { sb.SendtoMember(epA.ID(), []byte("direct")) })
	net.RunFor(500 * time.Millisecond)
	d, ok = sa.TryRecvfrom()
	if !ok || string(d.Data) != "direct" {
		t.Fatalf("unicast recvfrom = %+v %v", d, ok)
	}
	if _, ok := sb.TryRecvfrom(); ok {
		t.Error("unicast leaked to a non-destination socket")
	}
}

// TestMergeLayerHealsPartition uses the MERGE layer for automatic
// discovery: after a partition heals, beacons find the concurrent
// views and collapse them with no application involvement (property
// P16).
func TestMergeLayerHealsPartition(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 113, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	mk := func() core.StackSpec {
		spec := core.StackSpec{merge.New}
		return append(spec, vsStack()...)
	}
	eps, groups, cols := joinGroup(t, net, 4, mk)
	// With MERGE running, even initial group formation is automatic:
	// four singletons discover each other through beacons.
	net.RunFor(5 * time.Second)
	for _, c := range cols {
		v := c.lastView()
		if v == nil || v.Size() != 4 {
			t.Fatalf("%s: automatic formation failed: %v", c.name, v)
		}
	}

	// Partition, diverge, heal, re-merge automatically.
	net.Partition(
		[]core.EndpointID{eps[0].ID(), eps[1].ID()},
		[]core.EndpointID{eps[2].ID(), eps[3].ID()},
	)
	net.RunFor(3 * time.Second)
	for _, c := range cols {
		if v := c.lastView(); v == nil || v.Size() != 2 {
			t.Fatalf("%s: no 2-member view under partition: %v", c.name, v)
		}
	}
	net.Heal()
	net.RunFor(6 * time.Second)
	for _, c := range cols {
		v := c.lastView()
		if v == nil || v.Size() != 4 {
			t.Fatalf("%s: automatic healing failed: %v", c.name, v)
		}
	}
	// Group communication works again end to end.
	net.At(net.Now(), func() { groups[2].Cast(message.New([]byte("healed"))) })
	net.RunFor(time.Second)
	for _, c := range cols {
		got := c.casts[c.lastView().ID.Seq]
		if len(got) != 1 || got[0] != "healed" {
			t.Errorf("%s: post-heal delivery %v", c.name, got)
		}
	}
}

// TestStackRegistryEndToEnd drives a registry-built stack to make sure
// textual composition produces a working system.
func TestStackRegistryEndToEnd(t *testing.T) {
	spec, err := stackreg.Build("MBRSHIP:FRAG:NAK:CHKSUM:COM", property.P1)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(netsim.Config{Seed: 127, DefaultLink: netsim.Link{
		Delay: time.Millisecond, LossRate: 0.05, GarbleRate: 0.05,
	}})
	epA := net.NewEndpoint("a")
	epB := net.NewEndpoint("b")
	ca, cb := newVSCollector("a"), newVSCollector("b")
	ga, err := epA.Join("grp", spec, ca.handler())
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := stackreg.Build("MBRSHIP:FRAG:NAK:CHKSUM:COM", property.P1)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := epB.Join("grp", spec2, cb.handler())
	if err != nil {
		t.Fatal(err)
	}
	net.At(50*time.Millisecond, func() { gb.Merge(epA.ID()) })
	net.RunFor(2 * time.Second)
	net.At(net.Now(), func() { ga.Cast(message.New([]byte("via registry"))) })
	net.RunFor(2 * time.Second)
	if v := cb.lastView(); v == nil || v.Size() != 2 {
		t.Fatalf("registry stack formation failed: %v", cb.lastView())
	}
	got := cb.casts[cb.lastView().ID.Seq]
	if len(got) != 1 || got[0] != "via registry" {
		t.Fatalf("delivery through registry stack: %v", got)
	}
}
