// Sockets: the paper's §11 claim that Horus can hide a process group
// behind a standard UNIX-sockets interface — "a UNIX sendto operation
// will be mapped to a multicast, and a recvfrom will receive the next
// incoming message". This demo runs a tiny chat over loopback UDP
// sockets (chaosnet, with a 2 ms link): three members that only ever
// call Sendto and Recvfrom.
//
//	go run ./examples/sockets
package main

import (
	"fmt"
	"time"

	"horus/internal/chaosnet"
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
			mbrship.WithGossipPeriod(20*time.Millisecond),
			mbrship.WithFlushTimeout(300*time.Millisecond),
		),
		nak.NewWith(
			nak.WithStatusPeriod(10*time.Millisecond),
			nak.WithSuspectAfter(8),
		),
		com.New,
	}
}

func main() {
	fab := chaosnet.New(chaosnet.Config{Seed: 1, DefaultLink: netsim.Link{Delay: 2 * time.Millisecond}})
	defer fab.Close()

	open := func(name string) *socket.Socket {
		s, err := socket.Open(fab.NewEndpoint(name), "chat", stack(), 64)
		if err != nil {
			panic(err)
		}
		return s
	}
	alice := open("alice")
	bob := open("bob")
	carol := open("carol")

	// Form the group: sockets merge like any other member. Merges are
	// granted one at a time, so keep nudging until everyone sees all
	// three members.
	first := alice.Group().Endpoint().ID()
	for {
		formed := true
		for _, s := range []*socket.Socket{bob, carol} {
			if v := s.View(); v == nil || v.Size() < 3 {
				formed = false
				s.Merge(first)
			}
		}
		if formed {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("chat group formed:", alice.View())

	// Receivers: plain recvfrom loops, exactly like a datagram socket.
	done := make(chan struct{})
	for _, pair := range []struct {
		name string
		s    *socket.Socket
	}{{"bob", bob}, {"carol", carol}} {
		pair := pair
		go func() {
			// Each sees alice's multicast and bob's multicast (the
			// sender's own copy loops back too); carol's direct send
			// goes to alice alone.
			for i := 0; i < 2; i++ {
				d, ok := pair.s.Recvfrom()
				if !ok {
					return
				}
				fmt.Printf("%s recvfrom: %q (from %s)\n", pair.name, d.Data, d.From.Site)
			}
			done <- struct{}{}
		}()
	}

	// Senders: sendto multicasts to the group.
	alice.Sendto([]byte("hello, group"))
	time.Sleep(20 * time.Millisecond)
	bob.Sendto([]byte("hi alice"))
	time.Sleep(20 * time.Millisecond)
	carol.SendtoMember(first, []byte("psst, alice — just you"))

	// Alice reads everything addressed to her: her own multicast,
	// bob's multicast, and carol's direct message.
	for i := 0; i < 3; i++ {
		d, ok := alice.Recvfrom()
		if !ok {
			break
		}
		fmt.Printf("alice recvfrom: %q (from %s)\n", d.Data, d.From.Site)
	}
	<-done
	<-done

	alice.Close()
	bob.Close()
	carol.Close()
	fmt.Println("sockets closed; goodbye")
}
