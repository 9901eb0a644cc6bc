package core

import (
	"fmt"
	"slices"
	"strings"
)

// StabilityMatrix is the structure carried by STABLE upcalls (paper
// §9). Entry (i, j) records how many messages multicast by member i
// have been acknowledged as processed by member j. A message is stable
// once every surviving destination has processed it; what "processed"
// means is entirely application-defined — the matrix only reflects the
// ack downcalls the application issued (the paper's end-to-end point).
//
// Rows and columns are ranks in Members, the order of the view the
// matrix was built over: a member is its place in the view, and
// View.Rank is where an identifier becomes that place.
type StabilityMatrix struct {
	Members []EndpointID
	// Acked[i][j] = count of i's messages processed by j.
	Acked [][]uint64
}

// NewStabilityMatrix returns a zeroed matrix over members.
func NewStabilityMatrix(members []EndpointID) *StabilityMatrix {
	acked := make([][]uint64, len(members))
	for i := range acked {
		acked[i] = make([]uint64, len(members))
	}
	return &StabilityMatrix{Members: slices.Clone(members), Acked: acked}
}

// Raise records that n of the messages from the member of rank i have
// been processed by the member of rank j, and reports whether the entry
// rose. Counts are monotone: acknowledgement information can only grow,
// so a lower count than already recorded changes nothing.
func (s *StabilityMatrix) Raise(i, j int, n uint64) bool {
	if n <= s.Acked[i][j] {
		return false
	}
	s.Acked[i][j] = n
	return true
}

// MinStable returns the number of messages from the member of rank i
// processed by every member — i.e. the stable prefix of its stream.
func (s *StabilityMatrix) MinStable(i int) uint64 { return slices.Min(s.Acked[i]) }

// Rebase returns a matrix over v's members that keeps what s knew of
// those still there, wherever their rank moved; departed members' cells
// go and newcomers' start at zero. Each old member's new rank is
// resolved once. A nil s rebases to a zeroed matrix.
func (s *StabilityMatrix) Rebase(v *View) *StabilityMatrix {
	m := NewStabilityMatrix(v.Members)
	if s == nil {
		return m
	}
	rank := make([]int, len(s.Members))
	for i, e := range s.Members {
		rank[i] = v.Rank(e)
	}
	for i, row := range s.Acked {
		if rank[i] < 0 {
			continue
		}
		for j, n := range row {
			if rank[j] >= 0 {
				m.Acked[rank[i]][rank[j]] = n
			}
		}
	}
	return m
}

// Clone returns an independent deep copy.
func (s *StabilityMatrix) Clone() *StabilityMatrix {
	c := NewStabilityMatrix(s.Members)
	for i := range s.Acked {
		copy(c.Acked[i], s.Acked[i])
	}
	return c
}

// String renders the matrix one row per origin.
func (s *StabilityMatrix) String() string {
	var b strings.Builder
	for i, m := range s.Members {
		fmt.Fprintf(&b, "%s:%v ", m, s.Acked[i])
	}
	return strings.TrimSpace(b.String())
}
