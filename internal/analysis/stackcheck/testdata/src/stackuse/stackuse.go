// Package stackuse is the stackcheck fixture: constant stack
// literals, well-formed and malformed, fed to every entry point the
// analyzer watches.
package stackuse

import (
	"horus/internal/layers/switchp"
	"horus/internal/property"
	"horus/internal/stackreg"
)

// sevenStack is the paper's §7 worked example — well-formed over a
// best-effort network, and a named constant so the fixture also pins
// cross-constant resolution.
const sevenStack = "TOTAL:MBRSHIP:FRAG:NAK:COM"

func accepted() {
	_, _ = stackreg.Build(sevenStack, property.P1)
	_ = stackreg.MustBuild("MBRSHIP:FRAG:NAK:COM", property.P1)
	_, _ = property.Derive(property.P1, property.ParseStack(sevenStack))
	_, _ = property.Derive(property.P1, []string{"NAK", "COM"})
	_ = property.WellFormed(property.P1, property.ParseStack("FRAG:NAK:COM"))
	_, _ = property.StackCost([]string{"TOTAL", "COM"}) // cost needs no well-formedness
	_, _ = stackreg.Build(nonConstant(), property.P1)   // not resolvable: left to run time
}

func flagged() {
	_, _ = stackreg.Build("TOTAL:COM", property.P1)                    // want `malformed stack "TOTAL:COM" over network \{P1\}.*layer TOTAL requires`
	_ = stackreg.MustBuild("TOTAL:MBRSHIP:FRAG:NAK:XCOM", property.P1) // want `unknown layer "XCOM"`
	_, _ = stackreg.Build("", property.P1)                             // want `empty stack description`
	_, _ = property.Derive(property.P1, []string{"TOTAL", "COM"})      // want `malformed stack "TOTAL:COM".*layer TOTAL requires`
	_, _ = property.Derive(property.P1, []string{"total", "com"})      // want `unknown layer "total"`
	_ = property.WellFormed(0, property.ParseStack("COM"))             // want `layer COM requires \{P1\}`
	_, _ = property.StackCost([]string{"COM", "BOGUS"})                // want `unknown layer "BOGUS"`
}

// switchTargets feeds constant segment descriptions to the SWITCH
// reconfiguration API: targets are derived over property.SegmentBase
// with the SWITCH row beneath, so a segment smuggling a raw-network
// layer above the fence is an analysis-time finding, not a runtime
// abort.
func switchTargets(sw *switchp.Switch) {
	_ = sw.RequestSwitch("TOTAL")       // FIFO→TOTAL upgrade: well-formed over the base
	_ = sw.RequestSwitch("ADAPT")       // load shedding over the base: also fine
	_ = sw.RequestSwitch("")            // empties the segment: documented, legal
	_ = sw.RequestSwitch(nonConstant()) // not resolvable: left to run time
	_ = switchp.WithInitialSegment("ADAPT")

	_ = sw.RequestSwitch("TOTAL:COM")          // want `ill-formed switch target "TOTAL:COM".*layer COM requires \{P1\}`
	_ = sw.RequestSwitch("COMPRESS:TOTAL")     // want `ill-formed switch target "COMPRESS:TOTAL".*layer COMPRESS requires \{P1\}`
	_ = sw.RequestSwitch("TOTAL:XCOM")         // want `unknown layer "XCOM"`
	_ = switchp.WithInitialSegment("VSS")      // want `ill-formed switch target "VSS".*layer VSS requires \{P14\}`
	_ = switchp.WithInitialSegment(sevenStack) // want `ill-formed switch target .*layer COM requires \{P1\}`
}

// fastPath pins that the §10 compiled cast plan never enters the
// derivation: a stack that compiles a plan is accepted or rejected by
// exactly the same algebra as one that does not.
func fastPath() {
	// Well-formed, with a plan (HBEAT:CHKSUM:COM) and without one
	// (FRAG and MBRSHIP have no compiled form): nothing to report.
	_ = stackreg.MustBuild("HBEAT:CHKSUM:COM", property.P1)
	_ = stackreg.MustBuild("MBRSHIP:FRAG:NAK:CHKSUM:COM", property.P1)
	// Ill-formed over the bare network, with a plan (NAK:COM) and
	// without one (TOTAL has no compiled form): the same plain finding.
	_, _ = property.Derive(0, []string{"NAK", "COM"})                              // want `malformed stack "NAK:COM" over network \{\}:.*layer COM requires \{P1\}.*beneath it$`
	_ = property.WellFormed(0, []string{"TOTAL", "MBRSHIP", "FRAG", "NAK", "COM"}) // want `malformed stack "TOTAL:MBRSHIP:FRAG:NAK:COM" over network \{\}:.*layer COM requires \{P1\}.*beneath it$`
}

func suppressed() {
	// Negative example kept on purpose; the marker documents why.
	_, _ = stackreg.Build("TOTAL:COM", property.P1) //horus:stackcheck-ok — fixture: demonstrates the line-level opt-out
}

func nonConstant() string { return "COM" }
