package socket_test

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/netsim"
	"horus/internal/socket"
)

func stack() core.StackSpec {
	return core.StackSpec{
		mbrship.NewWith(
			mbrship.WithGossipPeriod(40*time.Millisecond),
			mbrship.WithFlushTimeout(500*time.Millisecond),
		),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithSuspectAfter(6),
		),
		com.New,
	}
}

func pair(t *testing.T) (*netsim.Network, *socket.Socket, *socket.Socket) {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: 5, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	sa, err := socket.Open(net.NewEndpoint("a"), "chat", stack(), 8)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := socket.Open(net.NewEndpoint("b"), "chat", stack(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Form([]*core.Group{sa.Group(), sb.Group()}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	return net, sa, sb
}

func TestSendtoRecvfromMapping(t *testing.T) {
	net, sa, sb := pair(t)
	net.At(net.Now(), func() { sa.Sendto([]byte("dgram")) })
	net.RunFor(500 * time.Millisecond)
	d, ok := sb.TryRecvfrom()
	if !ok || string(d.Data) != "dgram" {
		t.Fatalf("recvfrom = %v %v", d, ok)
	}
	if d.From != sa.Group().Endpoint().ID() {
		t.Errorf("datagram source = %v", d.From)
	}
	// Empty inbox reports no datagram.
	if _, ok := sb.TryRecvfrom(); ok {
		t.Error("TryRecvfrom on empty inbox returned a datagram")
	}
}

func TestInboxOverflowDropsOldest(t *testing.T) {
	net, sa, sb := pair(t)
	base := net.Now()
	for i := 0; i < 12; i++ { // limit is 8
		i := i
		net.At(base+time.Duration(i)*2*time.Millisecond, func() {
			sa.Sendto([]byte(fmt.Sprintf("m%02d", i)))
		})
	}
	net.RunFor(time.Second)
	if sb.Dropped() != 4 {
		t.Fatalf("Dropped = %d, want 4", sb.Dropped())
	}
	// The survivors are the newest 8, still in order.
	for i := 4; i < 12; i++ {
		d, ok := sb.TryRecvfrom()
		if !ok || string(d.Data) != fmt.Sprintf("m%02d", i) {
			t.Fatalf("position %d: %v %v", i, d, ok)
		}
	}
}

func TestRecvfromUnblocksOnClose(t *testing.T) {
	_, sa, _ := pair(t)
	done := make(chan bool, 1)
	go func() {
		_, ok := sa.Recvfrom()
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	sa.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Recvfrom returned a datagram after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recvfrom did not unblock on close")
	}
}

func TestViewExposed(t *testing.T) {
	_, sa, sb := pair(t)
	va, vb := sa.View(), sb.View()
	if va == nil || vb == nil || va.ID != vb.ID {
		t.Fatalf("socket views disagree: %v vs %v", va, vb)
	}
}
