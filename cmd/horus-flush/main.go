// Command horus-flush replays the paper's Figure 2 scenario on the
// simulated network and prints the event timeline:
//
//	Four processes: A, B, C, and D. D crashes right after sending a
//	message M, and only C received a copy. After the crash is
//	detected, A starts the flush protocol by multicasting to B and C.
//	C sends a copy of M to A, which forwards it to B. After A has
//	received replies from everyone, it installs a new view by
//	multicasting.
//
// The output shows the discovery merges forming {A,B,C,D}, the cast of
// M reaching only C, the suspicion, the flush rounds, M's redelivery
// to A and B, and the installation of {A,B,C}.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "horus-flush:", err)
		os.Exit(1)
	}
}

func stack() core.StackSpec {
	return core.StackSpec{
		mbrship.NewWith(
			mbrship.WithGossipPeriod(40*time.Millisecond),
			mbrship.WithFlushTimeout(500*time.Millisecond),
		),
		nak.NewWith(
			nak.WithStatusPeriod(20*time.Millisecond),
			nak.WithNakResend(15*time.Millisecond),
			nak.WithSuspectAfter(6),
		),
		com.New,
	}
}

// run narrates the scenario to w.
func run(w io.Writer) error {
	net := netsim.New(netsim.Config{Seed: 13, DefaultLink: netsim.Link{Delay: time.Millisecond}})
	names := []string{"A", "B", "C", "D"}
	eps := make([]*core.Endpoint, 4)
	groups := make([]*core.Group, 4)

	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(w, "t=%-8v %s\n", net.Now().Round(time.Millisecond), fmt.Sprintf(format, args...))
	}

	for i, name := range names {
		i, name := i, name
		eps[i] = net.NewEndpoint(name)
		g, err := eps[i].Join("fig2", stack(), func(ev *core.Event) {
			switch ev.Type {
			case core.UCast:
				logf("%s delivers %q from %s", name, ev.Msg.Body(), ev.Source.Site)
			case core.UFlush:
				logf("%s sees FLUSH (failed: %v)", name, ev.Failed)
			case core.UView:
				logf("%s installs view %v", name, ev.View)
			}
		})
		if err != nil {
			return err
		}
		groups[i] = g
	}

	fmt.Fprintln(w, "== group formation (join is view merge, paper §11) ==")
	if err := net.Form(groups, 2*time.Second); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n== the Figure 2 crash ==")
	// D's copies toward A, B (and itself) are lost; only C hears M.
	for _, dst := range []int{0, 1, 3} {
		net.SetLink(eps[3].ID(), eps[dst].ID(), netsim.Link{Delay: time.Millisecond, LossRate: 1})
	}
	base := net.Now()
	net.At(base, func() {
		logf("D casts M (copies to A and B are lost in the network)")
		groups[3].Cast(message.New([]byte("M")))
	})
	net.At(base+2*time.Millisecond, func() {
		logf("D crashes")
		net.Crash(eps[3].ID())
	})
	net.RunFor(3 * time.Second)

	fmt.Fprintln(w, "\n== outcome ==")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(w, "%s final view: %v\n", names[i], groups[i].View())
	}
	fmt.Fprintln(w, "\nVirtual synchrony held: every survivor delivered M exactly once,")
	fmt.Fprintln(w, "in the old view, before installing the new one.")
	return nil
}
