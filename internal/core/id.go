// Package core implements the Horus object model (paper §3) and the
// Horus Common Protocol Interface, HCPI (paper §4).
//
// It provides the four object classes of the paper — endpoints, groups,
// messages (in package message), and the event-queue execution model
// that replaced threads (paper §3 end, §10 item 2) — plus the Layer
// abstraction that lets protocol modules be stacked at run time.
package core

import (
	"fmt"
	"sort"
	"strings"
)

// EndpointID identifies a communication endpoint. The paper's endpoint
// address is used "for membership purposes"; coordinator election in
// the MBRSHIP layer picks "the oldest surviving member of the oldest
// view", so endpoint identifiers carry a logical birth stamp providing
// a total age order across a network.
type EndpointID struct {
	// Site names the process/host owning the endpoint.
	Site string
	// Birth is a logical creation stamp, unique per network; smaller
	// is older. The fabric that assigns it keeps it unique: netsim
	// and chaosnet number births from one counter and never reuse one,
	// and udpnet refuses a peer whose birth it already names under
	// another site. That is what lets a header carry an endpoint as
	// its birth alone, the receiver's fabric supplying the site
	// (Directory, package wire). A birth is below 2^63: the wire
	// format spends the varint's lowest bit on whether the site
	// follows.
	Birth uint64
}

// IsZero reports whether the ID is the zero (invalid) endpoint.
func (e EndpointID) IsZero() bool { return e.Site == "" && e.Birth == 0 }

// Older reports whether e was created before other, with Site as a
// deterministic tie-break.
func (e EndpointID) Older(other EndpointID) bool {
	if e.Birth != other.Birth {
		return e.Birth < other.Birth
	}
	return e.Site < other.Site
}

// String renders "site#birth".
func (e EndpointID) String() string { return fmt.Sprintf("%s#%d", e.Site, e.Birth) }

// GroupAddr is the address messages are sent to; endpoints join groups
// rather than addressing each other directly (paper §3: "messages are
// not addressed to endpoints, but to groups").
type GroupAddr string

// ViewID identifies a view installation: a sequence number plus the
// coordinator that installed it. Views with larger Seq are younger;
// Coord breaks ties between concurrent partitioned views.
type ViewID struct {
	Seq   uint64
	Coord EndpointID
}

// Older reports whether v was installed before other.
func (v ViewID) Older(other ViewID) bool {
	if v.Seq != other.Seq {
		return v.Seq < other.Seq
	}
	return v.Coord.Older(other.Coord)
}

// String renders "seq@coord".
func (v ViewID) String() string { return fmt.Sprintf("v%d@%s", v.Seq, v.Coord) }

// View is an ordered list of the endpoints a member can communicate
// with. Each member holds its own local copy; with a membership layer
// in the stack, every member of the view is guaranteed to have been
// sent the same view (paper §4).
type View struct {
	ID      ViewID
	Group   GroupAddr
	Members []EndpointID // rank order: Members[0] has rank 0
}

// NewView builds a view with members sorted by age (oldest first),
// which makes rank deterministic across members.
func NewView(id ViewID, group GroupAddr, members []EndpointID) *View {
	ms := make([]EndpointID, len(members))
	copy(ms, members)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Older(ms[j]) })
	return &View{ID: id, Group: group, Members: ms}
}

// Rank returns the position of e in the view, or -1 if absent.
func (v *View) Rank(e EndpointID) int {
	for i, m := range v.Members {
		if m == e {
			return i
		}
	}
	return -1
}

// Contains reports whether e is a member of the view.
func (v *View) Contains(e EndpointID) bool { return v.Rank(e) >= 0 }

// Size returns the number of members.
func (v *View) Size() int { return len(v.Members) }

// Clone returns an independent deep copy of the view.
func (v *View) Clone() *View {
	ms := make([]EndpointID, len(v.Members))
	copy(ms, v.Members)
	return &View{ID: v.ID, Group: v.Group, Members: ms}
}

// Without returns a copy of the view's members with the given
// endpoints removed.
func (v *View) Without(failed []EndpointID) []EndpointID {
	out := make([]EndpointID, 0, len(v.Members))
	for _, m := range v.Members {
		excluded := false
		for _, f := range failed {
			if m == f {
				excluded = true
				break
			}
		}
		if !excluded {
			out = append(out, m)
		}
	}
	return out
}

// Oldest returns the oldest member of the view (rank 0 after age
// sorting) — the member the MBRSHIP layer elects as flush coordinator
// without exchanging messages (paper §5 footnote 1).
func (v *View) Oldest() EndpointID {
	if len(v.Members) == 0 {
		return EndpointID{}
	}
	oldest := v.Members[0]
	for _, m := range v.Members[1:] {
		if m.Older(oldest) {
			oldest = m
		}
	}
	return oldest
}

// String renders "v3@a#1{a#1,b#2}".
func (v *View) String() string {
	names := make([]string, len(v.Members))
	for i, m := range v.Members {
		names[i] = m.String()
	}
	return fmt.Sprintf("%s{%s}", v.ID, strings.Join(names, ","))
}

// MsgID identifies a delivered message for end-to-end stability
// tracking (paper §9): the application passes it back via the ack
// downcall once the message "has been processed".
type MsgID struct {
	Origin EndpointID
	Seq    uint64
}

// String renders "origin/seq".
func (id MsgID) String() string { return fmt.Sprintf("%s/%d", id.Origin, id.Seq) }
