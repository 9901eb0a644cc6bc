// Package property implements the paper's §6 protocol-property
// algebra: the P1–P16 property list of Table 4, the
// Requires/Inherits/Provides matrix of Table 3, well-formedness
// checking of stacks, property derivation ("what does this stack
// give me over this network?"), and minimal-stack synthesis ("given a
// set of required properties, construct an appropriate stack").
//
// A stack is well-formed if, for each layer, all its required
// properties are guaranteed by the stack underneath it — provided by
// the layer immediately below or inherited from an even lower layer.
// Given a cost per layer, a minimal well-formed stack can be found;
// "rather than looking at this as stacking protocols on top of each
// other, a different interpretation is that Horus actually builds a
// single protocol for the particular application on the fly."
package property

import (
	"fmt"
	"strings"
)

// Set is a bitmask over the properties P1..P16 of Table 4.
type Set uint32

// The protocol properties of Table 4.
const (
	P1  Set = 1 << iota // best effort delivery
	P2                  // prioritized effort delivery
	P3                  // FIFO unicast delivery
	P4                  // FIFO multicast delivery
	P5                  // causal delivery
	P6                  // totally ordered delivery
	P7                  // safe delivery
	P8                  // virtually semi-synchronous delivery
	P9                  // virtually synchronous delivery
	P10                 // byte re-ordering detection
	P11                 // source address
	P12                 // large messages
	P13                 // causal timestamps
	P14                 // stability information
	P15                 // consistent views
	P16                 // automatic view merging
)

// All is the union of every property.
const All Set = 1<<16 - 1

// ExternalViews is the property contribution of an external membership
// service driving every member through the view downcall (Table 1
// view / Group.InstallView; paper §5's "membership can be provided by
// an external service"): views arrive consistent (P15), virtually
// (semi-)synchronously agreed (P8, P9) — decided outside the stack
// rather than by an MBRSHIP layer inside it. Stacks over a substrate
// of P1|ExternalViews may therefore place view-consuming layers
// (TOTAL, SAFE, PINWHEEL, ...) without MBRSHIP below, which is how
// the cluster-scale load harness mass-constructs hundreds of groups
// without paying a merge/flush dance per group. The caller takes on
// the service's obligation: install the same view at every member
// before traffic flows. core.InstallView is the one implementation of
// that obligation (netsim.Network.Form calls it for a stack no layer
// of which provides P15).
const ExternalViews Set = P8 | P9 | P15

// Descriptions holds Table 4: the name of each property.
var Descriptions = map[Set]string{
	P1:  "best effort delivery",
	P2:  "prioritized effort delivery",
	P3:  "FIFO unicast delivery",
	P4:  "FIFO multicast delivery",
	P5:  "causal delivery",
	P6:  "totally ordered delivery",
	P7:  "safe delivery",
	P8:  "virtually semi-synchronous delivery",
	P9:  "virtually synchronous delivery",
	P10: "byte re-ordering detection",
	P11: "source address",
	P12: "large messages",
	P13: "causal timestamps",
	P14: "stability information",
	P15: "consistent views",
	P16: "automatic view merging",
}

// Has reports whether s contains every property in p.
func (s Set) Has(p Set) bool { return s&p == p }

// Union returns s ∪ p.
func (s Set) Union(p Set) Set { return s | p }

// Minus returns s \ p.
func (s Set) Minus(p Set) Set { return s &^ p }

// Each calls fn for each individual property in ascending order.
func (s Set) Each(fn func(Set)) {
	for i := 0; i < 16; i++ {
		p := Set(1) << uint(i)
		if s&p != 0 {
			fn(p)
		}
	}
}

// Count returns the number of properties in the set.
func (s Set) Count() int {
	n := 0
	s.Each(func(Set) { n++ })
	return n
}

// Index returns i for the property Pi, or 0 for a non-singleton set.
func (s Set) Index() int {
	for i := 1; i <= 16; i++ {
		if s == Set(1)<<uint(i-1) {
			return i
		}
	}
	return 0
}

// String renders "{P3,P4,P10}".
func (s Set) String() string {
	var names []string
	s.Each(func(p Set) { names = append(names, fmt.Sprintf("P%d", p.Index())) })
	return "{" + strings.Join(names, ",") + "}"
}

// ParseSet parses "P3,P4" or "{P3, P4}" into a Set.
func ParseSet(text string) (Set, error) {
	text = strings.Trim(strings.TrimSpace(text), "{}")
	if text == "" {
		return 0, nil
	}
	var s Set
	for _, tok := range strings.Split(text, ",") {
		tok = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(tok), "P"))
		var i int
		if _, err := fmt.Sscanf(tok, "%d", &i); err != nil || i < 1 || i > 16 {
			return 0, fmt.Errorf("property: bad property %q", tok)
		}
		s |= Set(1) << uint(i-1)
	}
	return s, nil
}
