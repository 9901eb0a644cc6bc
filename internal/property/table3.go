package property

import "fmt"

// LayerSpec is one row of Table 3: what a layer requires from the
// communication underneath it, what it provides, which properties it
// passes through (inherits), and a rough cost used by minimal-stack
// synthesis (per-message header bytes plus bookkeeping, normalized).
type LayerSpec struct {
	Name     string
	Requires Set
	Provides Set
	Inherits Set
	Cost     int
}

// Reconstruction notes (see DESIGN.md §4): the scanned Table 3 is OCR
// noisy, so this matrix is rebuilt from each layer's prose description
// and fixed so the §7 worked example derives exactly
// {P3,P4,P6,P8,P9,P10,P11,P12,P15} from a P1 network. Deviations:
//
//   - P1 is *not* inherited by reliability layers (NAK and above):
//     this is what removes "best effort" from the §7 result, which the
//     paper's own list confirms (no P1 in it). P2 (prioritized effort)
//     survives reliability — NAK over NNAK keeps priorities.
//   - TSTAMP is added as the provider of P13, which Table 3 requires
//     (ORDER(causal)) but never provides.
//   - MERGE's OCR row shows a requirement on P1, unsatisfiable above
//     NAK under the inheritance rule above; it is dropped.
//   - CHKSUM/SIGN/CRYPT/COMPRESS/FC/TRACE/ACCOUNT/MLOG are §2 and
//     Figure 1 protocol types implemented in this library; they get
//     rows so stacks using them can be checked, though the paper's
//     table omits them.

// reliable is the inheritance mask of layers that replace best-effort
// delivery with reliable delivery.
const reliable = All &^ P1

// Table3 is the reconstructed layer matrix, bottom-most layers first.
var Table3 = []LayerSpec{
	{Name: "COM", Requires: P1, Provides: P10 | P11, Inherits: All, Cost: 1},
	{Name: "NFRAG", Requires: P1 | P10 | P11, Provides: P12, Inherits: All, Cost: 2},
	{Name: "NAK", Requires: P1 | P10 | P11, Provides: P3 | P4, Inherits: reliable, Cost: 3},
	{Name: "NNAK", Requires: P1 | P10 | P11, Provides: P2, Inherits: All, Cost: 2},
	{Name: "FRAG", Requires: P3 | P4 | P10 | P11, Provides: P12, Inherits: reliable, Cost: 2},
	{Name: "MBRSHIP", Requires: P3 | P4 | P10 | P11 | P12, Provides: P8 | P9 | P15, Inherits: reliable, Cost: 5},
	{Name: "BMS", Requires: P3 | P4 | P10 | P11 | P12, Provides: P8 | P15, Inherits: reliable, Cost: 3},
	{Name: "VSS", Requires: P3 | P8 | P10 | P11 | P12 | P14 | P15, Provides: P9, Inherits: reliable, Cost: 2},
	{Name: "FLUSH", Requires: P3 | P4 | P8 | P10 | P11 | P12 | P14 | P15, Provides: P9, Inherits: reliable, Cost: 3},
	{Name: "STABLE", Requires: P3 | P4 | P8 | P10 | P11 | P12, Provides: P14, Inherits: reliable, Cost: 2},
	{Name: "PINWHEEL", Requires: P3 | P8 | P9 | P10 | P15, Provides: P14, Inherits: reliable, Cost: 1},
	{Name: "TOTAL", Requires: P3 | P8 | P9 | P15, Provides: P6, Inherits: reliable, Cost: 3},
	{Name: "TSTAMP", Requires: P3 | P4 | P9 | P15, Provides: P13, Inherits: reliable, Cost: 2},
	{Name: "CAUSAL", Requires: P3 | P8 | P9 | P13 | P15, Provides: P5, Inherits: reliable, Cost: 2},
	{Name: "SAFE", Requires: P3 | P8 | P9 | P14 | P15, Provides: P7, Inherits: reliable, Cost: 2},
	{Name: "MERGE", Requires: P3 | P4 | P8 | P9 | P10 | P11 | P12 | P15, Provides: P16, Inherits: reliable, Cost: 1},
	// HBEAT is placement-agnostic: it runs over raw best effort (P1) or
	// over reliable FIFO (P3,P4) equally well — its heartbeats are
	// periodic and loss-tolerant by construction. The calculus cannot
	// express "P1 or better", so it requires nothing; it transforms no
	// traffic and inherits everything.
	{Name: "HBEAT", Requires: 0, Provides: 0, Inherits: All, Cost: 1},
	{Name: "CHKSUM", Requires: P1, Provides: 0, Inherits: All, Cost: 1},
	{Name: "SIGN", Requires: P1, Provides: 0, Inherits: All, Cost: 2},
	{Name: "CRYPT", Requires: P1, Provides: 0, Inherits: All, Cost: 3},
	{Name: "COMPRESS", Requires: P1, Provides: 0, Inherits: All, Cost: 2},
	{Name: "FC", Requires: P3 | P4 | P11, Provides: 0, Inherits: reliable, Cost: 1},
	// ADAPT regulates application traffic on graded suspicion and the
	// fabric's egress ledger (see package adapt). Like FC it needs
	// reliable FIFO multicast beneath it — pacing and shedding are only
	// meaningful when what it admits is actually delivered — and adds
	// no property of its own: a shed cast is announced as a
	// LOST_MESSAGE, so the delivery contract of the stack beneath is
	// preserved for everything admitted.
	{Name: "ADAPT", Requires: P3 | P4 | P11, Provides: 0, Inherits: reliable, Cost: 1},
	{Name: "GKEY", Requires: P9 | P15, Provides: 0, Inherits: reliable, Cost: 3},
	// SWITCH is the run-time reconfiguration fence (package switchp).
	// It needs virtually synchronous reliable multicast beneath it: its
	// PROPOSE/QUIESCED/READY/COMMIT/ABORT control rounds are ordinary
	// casts whose all-or-nothing delivery within a view (P9) is what
	// makes the commit decision uniform, and FIFO (P3) is what makes a
	// QUIESCED marker a communication-closed cut (it cannot overtake the
	// data it fences). It adds no property of its own — the properties
	// of the managed segment above it are derived per epoch, against
	// SegmentBase.
	{Name: "SWITCH", Requires: P3 | P4 | P8 | P9 | P15, Provides: 0, Inherits: reliable, Cost: 2},
	{Name: "TRACE", Requires: 0, Provides: 0, Inherits: All, Cost: 1},
	{Name: "ACCOUNT", Requires: 0, Provides: 0, Inherits: All, Cost: 1},
	{Name: "MLOG", Requires: 0, Provides: 0, Inherits: All, Cost: 1},
}

// SegmentBase is the property set a SWITCH-managed segment may assume
// from the stack beneath the reconfiguration fence: exactly what the
// canonical base MBRSHIP:HBEAT:NAK:COM yields from a P1 network. Static
// checking (horus-vet's stackcheck) derives constant segment targets
// against this set, so "TOTAL:COM" — a segment smuggling a raw-network
// layer above the fence — is rejected at analysis time. The run-time
// engine re-derives against the *actual* layers below the fence before
// any switch moves, so a stack with a richer or poorer base is still
// checked exactly.
const SegmentBase = P3 | P4 | P8 | P9 | P10 | P11 | P12 | P15

// Spec returns the named layer's row, or an error.
func Spec(name string) (LayerSpec, error) {
	for _, s := range Table3 {
		if s.Name == name {
			return s, nil
		}
	}
	return LayerSpec{}, fmt.Errorf("property: unknown layer %q", name)
}

// Names returns the names of all rows in table order.
func Names() []string {
	out := make([]string, len(Table3))
	for i, s := range Table3 {
		out[i] = s.Name
	}
	return out
}
