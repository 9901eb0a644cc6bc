package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"horus/internal/core"
)

// History is everything one incarnation of a member observed: its view
// chain and its delivery stream, each delivery tagged with the full
// ViewID it arrived in. Concurrent partitioned views can share a
// sequence number, so views are always keyed by the full ID
// (Seq, Coord), never Seq alone.
//
// The recording handler locks, so a history may be appended to from a
// wall-clock fabric's socket goroutines while the driver polls Last;
// the checkers read Views and Deliveries directly and require the run
// to be quiescent (simulation stopped, or the UDP fabric closed).
type History struct {
	Slot, Inc int
	ID        core.EndpointID

	mu         sync.Mutex
	Views      []*core.View
	Deliveries []Delivery
	Switches   []SwitchRecord
	Crashed    bool // this incarnation was crashed by the schedule

	// NonPrimary holds the views installed as non-primary (under the
	// primary-partition restriction). Nothing is delivered in them, and
	// no SWITCH CONFIG names their segment.
	NonPrimary map[core.ViewID]bool
}

// Delivery is one event the application observed: a cast payload, or —
// when Lost is set — a LOST_MESSAGE report (NAK answered a
// retransmission request with a place holder because the sender's
// buffer no longer held the range). Lost entries carry no payload; From
// names the peer whose stream had the hole. They matter to the FIFO
// checker: a within-view sequence gap is legal exactly when the
// application was told about it.
type Delivery struct {
	View    core.ViewID
	Payload string
	Lost    bool
	From    core.EndpointID
}

// SwitchRecord is one SWITCH outcome upcall: a committed
// reconfiguration to a new segment (Detail is the segment description,
// possibly empty) or an aborted attempt rolled back to the old stack
// (Detail is the abort reason). View is the view it takes effect in: a
// SWITCH upcall follows that view's VIEW upcall.
type SwitchRecord struct {
	View      core.ViewID
	Committed bool
	Detail    string
}

func (h *History) name() string { return fmt.Sprintf("s%d.%d", h.Slot, h.Inc) }

// handler returns the group handler that records this history.
func (h *History) handler() core.Handler {
	var cur core.ViewID
	return func(ev *core.Event) {
		h.mu.Lock()
		defer h.mu.Unlock()
		switch ev.Type {
		case core.UView:
			h.Views = append(h.Views, ev.View)
			cur = ev.View.ID
			if !ev.Primary {
				if h.NonPrimary == nil {
					h.NonPrimary = map[core.ViewID]bool{}
				}
				h.NonPrimary[cur] = true
			}
		case core.UCast:
			h.Deliveries = append(h.Deliveries, Delivery{
				View: cur, Payload: string(ev.Msg.Body())})
		case core.ULostMessage:
			h.Deliveries = append(h.Deliveries, Delivery{View: cur, Lost: true, From: ev.Source})
		case core.USwitch:
			rec := SwitchRecord{View: cur}
			if strings.HasPrefix(ev.Reason, "committed") {
				rec.Committed = true
				rec.Detail = strings.TrimSpace(strings.TrimPrefix(ev.Reason, "committed"))
			} else {
				rec.Detail = strings.TrimSpace(strings.TrimPrefix(ev.Reason, "aborted:"))
			}
			h.Switches = append(h.Switches, rec)
		}
	}
}

// Last returns the most recently installed view, or nil. It is the
// driver's race-free window into a member's progress: on a wall-clock
// fabric the group's own View accessor belongs to the stack goroutine,
// while the recorded history is always safe to poll.
func (h *History) Last() *core.View {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.Views) == 0 {
		return nil
	}
	return h.Views[len(h.Views)-1]
}

// next returns the view installed immediately after v in this history,
// or nil if v is the last (open) view.
func (h *History) next(v core.ViewID) *core.View {
	for i, w := range h.Views {
		if w.ID == v && i+1 < len(h.Views) {
			return h.Views[i+1]
		}
	}
	return nil
}

// inView reports whether this history installed the view.
func (h *History) inView(v core.ViewID) bool {
	for _, w := range h.Views {
		if w.ID == v {
			return true
		}
	}
	return false
}

// CheckAll runs every invariant checker and concatenates the
// violations.
func CheckAll(hs []*History) []error {
	var errs []error
	errs = append(errs, CheckSelfInclusion(hs)...)
	errs = append(errs, CheckMonotoneViews(hs)...)
	errs = append(errs, CheckViewConsistency(hs)...)
	errs = append(errs, CheckNoDuplicates(hs)...)
	errs = append(errs, CheckFIFO(hs)...)
	errs = append(errs, CheckViewAgreement(hs)...)
	errs = append(errs, CheckSwitchEpochs(hs)...)
	errs = append(errs, CheckSwitchAgreement(hs)...)
	errs = append(errs, CheckSwitchTotalOrder(hs)...)
	return errs
}

// CheckSelfInclusion: every view a member installs contains that
// member (paper §6 — a member learns of its own removal only by the
// view *before* its exclusion; it never installs a view it is not in).
func CheckSelfInclusion(hs []*History) []error {
	var errs []error
	for _, h := range hs {
		for _, v := range h.Views {
			if !v.Contains(h.ID) {
				errs = append(errs, fmt.Errorf(
					"self-inclusion: %s installed view %v that excludes it", h.name(), v))
			}
		}
	}
	return errs
}

// CheckMonotoneViews: a member's views strictly advance in the
// protocol's own installation order (ViewID.Older: sequence number,
// coordinator-identity tiebreak for concurrent partitioned views) — no
// view is installed twice, none regress.
func CheckMonotoneViews(hs []*History) []error {
	var errs []error
	for _, h := range hs {
		for i := 1; i < len(h.Views); i++ {
			if !h.Views[i-1].ID.Older(h.Views[i].ID) {
				errs = append(errs, fmt.Errorf(
					"monotone-views: %s installed %v after %v",
					h.name(), h.Views[i].ID, h.Views[i-1].ID))
			}
		}
	}
	return errs
}

// CheckViewConsistency: any two members that install the same ViewID
// agree on its membership list, order included.
func CheckViewConsistency(hs []*History) []error {
	var errs []error
	seen := map[core.ViewID]struct {
		members string
		who     string
	}{}
	for _, h := range hs {
		for _, v := range h.Views {
			key := fmt.Sprint(v.Members)
			if prev, ok := seen[v.ID]; ok {
				if prev.members != key {
					errs = append(errs, fmt.Errorf(
						"view-consistency: view %v is %s at %s but %s at %s",
						v.ID, prev.members, prev.who, key, h.name()))
				}
				continue
			}
			seen[v.ID] = struct{ members, who string }{key, h.name()}
		}
	}
	return errs
}

// CheckNoDuplicates: no payload is delivered twice to the same
// incarnation — not within a view, not across views (workload payloads
// are globally unique, so one delivery each is the most there can be).
func CheckNoDuplicates(hs []*History) []error {
	var errs []error
	for _, h := range hs {
		seen := map[string]core.ViewID{}
		for _, d := range h.Deliveries {
			if d.Lost {
				continue
			}
			if first, dup := seen[d.Payload]; dup {
				errs = append(errs, fmt.Errorf(
					"no-duplicates: %s delivered %q twice (views %v and %v)",
					h.name(), d.Payload, first, d.View))
				continue
			}
			seen[d.Payload] = d.View
		}
	}
	return errs
}

// CheckFIFO: per receiving incarnation and per origin tag, delivered
// workload sequence numbers strictly increase overall and are
// contiguous within a single view. Gaps are legal across a view
// boundary — a partition can hide a stretch of an origin's casts in
// views the receiver was never part of — and within a view only when
// the hole was explicitly reported: NAK answers a request for a
// trimmed range with a place holder that surfaces as LOST_MESSAGE
// (paper §7), which happens under chaos when a receiver is excluded
// from the view and the sender's buffer is trimmed to the surviving
// members' acks. A recorded loss report from the origin (or from a
// peer no history accounts for, e.g. a flush forwarder) between the
// two deliveries forgives the gap; a silent hole is still a violation.
func CheckFIFO(hs []*History) []error {
	names := map[core.EndpointID]string{}
	for _, h := range hs {
		names[h.ID] = h.name()
	}
	var errs []error
	for _, h := range hs {
		type last struct {
			seq  int
			view core.ViewID
		}
		prev := map[string]last{}
		lossSince := map[string]bool{} // origin -> loss reported since its last delivery
		var lossAnyView *core.ViewID   // view holding a loss from a peer outside the histories
		for _, d := range h.Deliveries {
			if d.Lost {
				if name, ok := names[d.From]; ok {
					lossSince[name] = true
				} else {
					v := d.View
					lossAnyView = &v
				}
				continue
			}
			origin, seq, ok := parsePayload(d.Payload)
			if !ok {
				errs = append(errs, fmt.Errorf("fifo: %s delivered unparseable payload %q", h.name(), d.Payload))
				continue
			}
			if p, seen := prev[origin]; seen {
				if seq <= p.seq {
					errs = append(errs, fmt.Errorf(
						"fifo: %s delivered %s-%d after %s-%d", h.name(), origin, seq, origin, p.seq))
				} else if seq != p.seq+1 && d.View == p.view && !lossSince[origin] &&
					(lossAnyView == nil || *lossAnyView != d.View) {
					errs = append(errs, fmt.Errorf(
						"fifo: %s has a gap within view %v: %s-%d follows %s-%d",
						h.name(), d.View, origin, seq, origin, p.seq))
				}
			}
			prev[origin] = last{seq, d.View}
			delete(lossSince, origin)
		}
	}
	return errs
}

// CheckViewAgreement is the virtual-synchrony core: members that move
// from view v to the same successor view w agree exactly on the set of
// messages delivered while in v. (Members that leave v toward
// *different* successors — a partition — are allowed to disagree, and
// an incarnation's final open view is not checked: the simulation
// stopping is not a flush.)
func CheckViewAgreement(hs []*History) []error {
	type edge struct{ from, to core.ViewID }
	groups := map[edge][]*History{}
	for _, h := range hs {
		for i := 0; i+1 < len(h.Views); i++ {
			e := edge{h.Views[i].ID, h.Views[i+1].ID}
			groups[e] = append(groups[e], h)
		}
	}
	// Deterministic error order for reproducible reports.
	edges := make([]edge, 0, len(groups))
	for e := range groups {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from.Seq != edges[j].from.Seq {
			return edges[i].from.Seq < edges[j].from.Seq
		}
		return edges[i].to.Seq < edges[j].to.Seq
	})
	var errs []error
	for _, e := range edges {
		members := groups[e]
		if len(members) < 2 {
			continue
		}
		ref := deliverySet(members[0], e.from)
		for _, h := range members[1:] {
			set := deliverySet(h, e.from)
			if diff := setDiff(ref, set); diff != "" {
				errs = append(errs, fmt.Errorf(
					"view-agreement: %s and %s both moved %v->%v but disagree on deliveries in %v: %s",
					members[0].name(), h.name(), e.from, e.to, e.from, diff))
			}
		}
	}
	return errs
}

func deliverySet(h *History, v core.ViewID) map[string]bool {
	set := map[string]bool{}
	for _, d := range h.Deliveries {
		if d.View == v && !d.Lost {
			set[d.Payload] = true
		}
	}
	return set
}

func setDiff(a, b map[string]bool) string {
	var onlyA, onlyB []string
	for p := range a {
		if !b[p] {
			onlyA = append(onlyA, p)
		}
	}
	for p := range b {
		if !a[p] {
			onlyB = append(onlyB, p)
		}
	}
	if len(onlyA) == 0 && len(onlyB) == 0 {
		return ""
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return fmt.Sprintf("only-first=%v only-second=%v", onlyA, onlyB)
}

// Segments returns the segment this history ran in each view it
// installed, derived from its VIEW and SWITCH records: a view runs the
// segment its commit names, or its predecessor's when it has none. The
// first view runs the empty segment.
func (h *History) Segments() map[core.ViewID]string {
	committed := map[core.ViewID]string{}
	for _, s := range h.Switches {
		if s.Committed {
			committed[s.View] = s.Detail
		}
	}
	segs := make(map[core.ViewID]string, len(h.Views))
	cur := ""
	for _, v := range h.Views {
		if d, ok := committed[v.ID]; ok {
			cur = d
		}
		segs[v.ID] = cur
	}
	return segs
}

// CheckSwitchEpochs: an incarnation commits at most once per view. A
// switch is a view change, so a second commit in one view means a
// segment was swapped somewhere other than at the view's edge.
func CheckSwitchEpochs(hs []*History) []error {
	var errs []error
	for _, h := range hs {
		seen := map[core.ViewID]bool{}
		for _, s := range h.Switches {
			if !s.Committed {
				continue
			}
			if seen[s.View] {
				errs = append(errs, fmt.Errorf(
					"switch-epochs: %s committed twice in view %v (again to %q)",
					h.name(), s.View, s.Detail))
			}
			seen[s.View] = true
		}
	}
	return errs
}

// CheckSwitchAgreement: any two incarnations that installed the same
// primary view ran the same segment in it, whether or not either
// committed there. The view's CONFIG names the segment, and a CONFIG is
// a virtually synchronous cast, so a disagreement means two members
// reconfigured the view differently — the atomicity the protocol
// exists to provide. A non-primary view has no CONFIG, and members
// arriving from primary views that ran different segments keep them
// there: nothing is delivered in it.
func CheckSwitchAgreement(hs []*History) []error {
	var errs []error
	seen := map[core.ViewID]struct {
		desc string
		who  string
	}{}
	for _, h := range hs {
		segs := h.Segments()
		for _, v := range h.Views {
			if h.NonPrimary[v.ID] {
				continue
			}
			desc := segs[v.ID]
			if prev, ok := seen[v.ID]; ok {
				if prev.desc != desc {
					errs = append(errs, fmt.Errorf(
						"switch-agreement: view %v runs %q at %s but %q at %s",
						v.ID, prev.desc, prev.who, desc, h.name()))
				}
				continue
			}
			seen[v.ID] = struct{ desc, who string }{desc, h.name()}
		}
	}
	return errs
}

// CheckSwitchTotalOrder: in any view whose segment carries a TOTAL
// layer, two members deliver their common payloads in the same
// relative order. This is the post-switch payoff check: a FIFO→TOTAL
// upgrade is only real if ordering actually tightens after the switch.
// Scoped per view because TOTAL's guarantee is within-view and
// concurrent partitioned views may legitimately order disjoint
// suffixes differently.
func CheckSwitchTotalOrder(hs []*History) []error {
	seqs := map[core.ViewID]map[string][]string{} // view -> member name -> payload order
	for _, h := range hs {
		segs := h.Segments()
		for _, d := range h.Deliveries {
			if d.Lost || !strings.Contains(segs[d.View], "TOTAL") {
				continue
			}
			if seqs[d.View] == nil {
				seqs[d.View] = map[string][]string{}
			}
			seqs[d.View][h.name()] = append(seqs[d.View][h.name()], d.Payload)
		}
	}
	views := make([]core.ViewID, 0, len(seqs))
	for v := range seqs {
		views = append(views, v)
	}
	sort.Slice(views, func(i, j int) bool { return views[i].Older(views[j]) })
	var errs []error
	for _, v := range views {
		byMember := seqs[v]
		names := make([]string, 0, len(byMember))
		for n := range byMember {
			names = append(names, n)
		}
		sort.Strings(names)
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				a, b := byMember[names[i]], byMember[names[j]]
				ca, cb := commonOrder(a, b)
				for k := range ca {
					if ca[k] != cb[k] {
						errs = append(errs, fmt.Errorf(
							"switch-total-order: view %v: %s delivered %q before %q but %s ordered them the other way",
							v, names[i], ca[k], cb[k], names[j]))
						break
					}
				}
			}
		}
	}
	return errs
}

// commonOrder filters each payload sequence down to the payloads
// present in both, preserving order.
func commonOrder(a, b []string) ([]string, []string) {
	inA := map[string]bool{}
	for _, p := range a {
		inA[p] = true
	}
	inB := map[string]bool{}
	for _, p := range b {
		inB[p] = true
	}
	var fa, fb []string
	for _, p := range a {
		if inB[p] {
			fa = append(fa, p)
		}
	}
	for _, p := range b {
		if inA[p] {
			fb = append(fb, p)
		}
	}
	return fa, fb
}

// parsePayload splits a workload payload "s<slot>.<inc>-<seq>" into
// its origin tag and sequence number.
func parsePayload(p string) (origin string, seq int, ok bool) {
	i := strings.LastIndexByte(p, '-')
	if i < 0 {
		return "", 0, false
	}
	if _, err := fmt.Sscanf(p[i+1:], "%d", &seq); err != nil {
		return "", 0, false
	}
	return p[:i], seq, true
}
