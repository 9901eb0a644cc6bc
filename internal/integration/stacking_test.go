package integration

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/property"
	"horus/internal/stackreg"
)

// TestStackingCombinations is the Figure 1 claim made executable:
// every well-formed composition of registered layers builds at run
// time and moves messages end to end. The list deliberately mixes
// orderings and optional layers.
func TestStackingCombinations(t *testing.T) {
	stacks := []string{
		"NAK:COM",
		"NAK:CHKSUM:COM",
		"NAK:SIGN:COM",
		"NAK:CRYPT:COM",
		"NAK:SIGN:CRYPT:COM",
		"NAK:COMPRESS:COM",
		"FRAG:NAK:COM",
		"FC:NAK:COM",
		"FRAG:FC:NAK:CHKSUM:COM",
		"TRACE:NAK:COM",
		"ACCOUNT:NAK:COM",
		"MLOG:NAK:COM",
		"TRACE:ACCOUNT:MLOG:FRAG:NAK:SIGN:CRYPT:COMPRESS:CHKSUM:COM",
		"MBRSHIP:FRAG:NAK:COM",
		"TOTAL:MBRSHIP:FRAG:NAK:COM",
		"STABLE:MBRSHIP:FRAG:NAK:COM",
		"SAFE:STABLE:MBRSHIP:FRAG:NAK:COM",
		"CAUSAL:TSTAMP:MBRSHIP:FRAG:NAK:COM",
		"MERGE:MBRSHIP:FRAG:NAK:COM",
		"PINWHEEL:MBRSHIP:FRAG:NAK:COM",
		"FLUSH:STABLE:BMS:FRAG:NAK:COM",
		"VSS:STABLE:BMS:FRAG:NAK:COM",
		"TRACE:TOTAL:MBRSHIP:FRAG:FC:NAK:SIGN:CHKSUM:COM",
		"GKEY:MBRSHIP:FRAG:NAK:COM",
		"TOTAL:GKEY:MBRSHIP:FRAG:NAK:COM",
	}
	for _, desc := range stacks {
		desc := desc
		t.Run(desc, func(t *testing.T) {
			names := property.ParseStack(desc)
			if _, err := property.Derive(property.P1, names); err != nil {
				t.Fatalf("stack not well-formed: %v", err)
			}
			net := netsim.New(netsim.Config{Seed: 151, DefaultLink: netsim.Link{Delay: time.Millisecond}})
			build := func() core.StackSpec {
				spec, err := stackreg.Build(desc, property.P1)
				if err != nil {
					t.Fatal(err)
				}
				return spec
			}
			epA := net.NewEndpoint("a")
			epB := net.NewEndpoint("b")
			ca, cb := newVSCollector("a"), newVSCollector("b")
			ga, err := epA.Join("grp", build(), ca.handler())
			if err != nil {
				t.Fatal(err)
			}
			gb, err := epB.Join("grp", build(), cb.handler())
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Form([]*core.Group{ga, gb}, 3*time.Second); err != nil {
				t.Fatal(err)
			}

			base := net.Now()
			for i := 0; i < 5; i++ {
				i := i
				net.At(base+time.Duration(i)*10*time.Millisecond, func() {
					ga.Cast(message.New([]byte(fmt.Sprintf("m%d", i))))
				})
			}
			net.RunFor(3 * time.Second)

			var all []string
			for _, msgs := range cb.casts {
				all = append(all, msgs...)
			}
			if len(all) != 5 {
				t.Fatalf("b delivered %d of 5 casts through %s: %v", len(all), desc, all)
			}
		})
	}
}
