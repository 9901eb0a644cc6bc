// Package failure implements the external failure-detection service of
// paper §5: "an external service picks up communication
// problem-reports and other failure information, and decides whether a
// process is to be considered faulty or not. The output of this
// service can be fed to all instances of the MBRSHIP layer, so that
// the corresponding groups have the same (consistent) view of the
// environment."
//
// The Service collects PROBLEM reports from many observers and
// declares an endpoint faulty once a configurable number of distinct
// observers agree. Verdicts go to every subscriber, so all groups act
// on the same failure information. Use it with
// mbrship.WithExternalSuspicions(), which makes MBRSHIP ignore its own
// layer-level suspicions, and WrapHandler, which routes a group's
// PROBLEM upcalls into the service and its verdicts into flush
// downcalls.
package failure

import (
	"sort"
	"sync"

	"horus/internal/core"
)

// Service is a process-local failure detector aggregating suspicion
// reports. It is safe for concurrent use.
type Service struct {
	mu        sync.Mutex
	threshold int
	reports   map[core.EndpointID]map[core.EndpointID]bool // suspect -> observers
	faulty    map[core.EndpointID]bool
	subs      []func(faulty []core.EndpointID)
}

// NewService returns a service that declares an endpoint faulty after
// reports from threshold distinct observers (minimum 1).
func NewService(threshold int) *Service {
	if threshold < 1 {
		threshold = 1
	}
	return &Service{
		threshold: threshold,
		reports:   make(map[core.EndpointID]map[core.EndpointID]bool),
		faulty:    make(map[core.EndpointID]bool),
	}
}

// Subscribe registers fn to receive the full faulty set whenever it
// grows. Subscribers are called without internal locks held.
func (s *Service) Subscribe(fn func(faulty []core.EndpointID)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs = append(s.subs, fn)
}

// Report records that observer suspects suspect. If the threshold is
// crossed, every subscriber hears the (consistent) verdict.
func (s *Service) Report(observer, suspect core.EndpointID) {
	s.mu.Lock()
	if s.faulty[suspect] {
		s.mu.Unlock()
		return
	}
	obs := s.reports[suspect]
	if obs == nil {
		obs = make(map[core.EndpointID]bool)
		s.reports[suspect] = obs
	}
	obs[observer] = true
	if len(obs) < s.threshold {
		s.mu.Unlock()
		return
	}
	s.faulty[suspect] = true
	verdict := s.faultyLocked()
	subs := make([]func([]core.EndpointID), len(s.subs))
	copy(subs, s.subs)
	s.mu.Unlock()
	for _, fn := range subs {
		fn(verdict)
	}
}

// Clear forgets everything recorded about an endpoint (e.g. after it
// rejoins under a new incarnation).
func (s *Service) Clear(e core.EndpointID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.faulty, e)
	delete(s.reports, e)
}

// Faulty returns the current verdict set.
func (s *Service) Faulty() []core.EndpointID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faultyLocked()
}

func (s *Service) faultyLocked() []core.EndpointID {
	out := make([]core.EndpointID, 0, len(s.faulty))
	for e := range s.faulty {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Older(out[j]) })
	return out
}

// WrapHandler interposes the service between a group and its
// application handler: PROBLEM upcalls become reports, and service
// verdicts become flush downcalls on the group. The inner handler
// still sees every event. Call it when joining:
//
//	g, _ := ep.Join(addr, spec, nil)
//	...Join does not allow late handlers, so instead:
//	h := svc.WrapHandler(&g, inner)  — pass h to Join and assign g after.
//
// Because Join needs the handler before the group exists, WrapHandler
// takes a pointer to the group variable the caller will fill in.
func (s *Service) WrapHandler(g **core.Group, inner core.Handler) core.Handler {
	s.Subscribe(func(faulty []core.EndpointID) {
		if grp := *g; grp != nil {
			grp.Flush(faulty)
		}
	})
	return func(ev *core.Event) {
		if ev.Type == core.UProblem {
			if grp := *g; grp != nil {
				s.Report(grp.Endpoint().ID(), ev.Source)
			}
		}
		if inner != nil {
			inner(ev)
		}
	}
}
