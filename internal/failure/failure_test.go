package failure

import (
	"sync"
	"testing"

	"horus/internal/core"
)

func id(site string, birth uint64) core.EndpointID {
	return core.EndpointID{Site: site, Birth: birth}
}

func TestThresholdGatesVerdict(t *testing.T) {
	s := NewService(2)
	var verdicts [][]core.EndpointID
	s.Subscribe(func(f []core.EndpointID) { verdicts = append(verdicts, f) })

	s.Report(id("a", 1), id("x", 9))
	if len(verdicts) != 0 {
		t.Fatal("verdict after a single report with threshold 2")
	}
	s.Report(id("a", 1), id("x", 9)) // duplicate observer does not count twice
	if len(verdicts) != 0 {
		t.Fatal("duplicate observer crossed the threshold")
	}
	s.Report(id("b", 2), id("x", 9))
	if len(verdicts) != 1 || len(verdicts[0]) != 1 || verdicts[0][0] != id("x", 9) {
		t.Fatalf("verdicts = %v", verdicts)
	}
}

func TestVerdictIsCumulativeAndSorted(t *testing.T) {
	s := NewService(1)
	var last []core.EndpointID
	s.Subscribe(func(f []core.EndpointID) { last = f })
	s.Report(id("a", 1), id("y", 5))
	s.Report(id("a", 1), id("x", 3))
	if len(last) != 2 || last[0] != id("x", 3) || last[1] != id("y", 5) {
		t.Fatalf("faulty set = %v, want [x#3 y#5] (age sorted)", last)
	}
	if got := s.Faulty(); len(got) != 2 {
		t.Fatalf("Faulty = %v", got)
	}
}

func TestReportsAfterVerdictAreIgnored(t *testing.T) {
	s := NewService(1)
	count := 0
	s.Subscribe(func([]core.EndpointID) { count++ })
	s.Report(id("a", 1), id("x", 9))
	s.Report(id("b", 2), id("x", 9))
	if count != 1 {
		t.Errorf("subscribers called %d times for one faulty endpoint", count)
	}
}

func TestClearForgets(t *testing.T) {
	s := NewService(1)
	s.Report(id("a", 1), id("x", 9))
	s.Clear(id("x", 9))
	if got := s.Faulty(); len(got) != 0 {
		t.Errorf("Faulty after Clear = %v", got)
	}
}

// TestClearRejoinPath covers the rejoin scenario Clear exists for: an
// endpoint declared faulty comes back (new incarnation at the same
// identity, or an operator overrides the verdict), Clear is called, and
// the detector must treat it as a first-class member again — fully
// re-suspectable, with the threshold counted from zero and subscribers
// hearing the fresh verdict when it is crossed again.
func TestClearRejoinPath(t *testing.T) {
	s := NewService(2)
	var verdicts [][]core.EndpointID
	s.Subscribe(func(f []core.EndpointID) { verdicts = append(verdicts, f) })

	x := id("x", 9)
	s.Report(id("a", 1), x)
	s.Report(id("b", 2), x)
	if len(verdicts) != 1 {
		t.Fatalf("verdicts before Clear = %v, want exactly one", verdicts)
	}

	// While faulty, further reports are swallowed; after Clear they
	// must count again.
	s.Report(id("c", 3), x)
	s.Clear(x)
	if got := s.Faulty(); len(got) != 0 {
		t.Fatalf("Faulty after Clear = %v, want empty", got)
	}

	// Clear must also have dropped partial evidence: one pre-Clear
	// observer plus one post-Clear observer is NOT two fresh reports.
	s.Report(id("a", 1), x)
	if len(verdicts) != 1 {
		t.Fatalf("single post-Clear report re-declared faulty: %v", verdicts)
	}
	s.Report(id("b", 2), x)
	if len(verdicts) != 2 {
		t.Fatalf("threshold crossed again but no fresh verdict: %v", verdicts)
	}
	if len(verdicts[1]) != 1 || verdicts[1][0] != x {
		t.Fatalf("fresh verdict = %v, want [%v]", verdicts[1], x)
	}
	if got := s.Faulty(); len(got) != 1 || got[0] != x {
		t.Fatalf("Faulty after re-suspicion = %v", got)
	}
}

// TestConcurrentReportsAndClear drives Subscribe, Report, Faulty and
// Clear from many goroutines at once; under -race it pins that the
// service is safe for concurrent use, as its doc promises.
func TestConcurrentReportsAndClear(t *testing.T) {
	s := NewService(1)
	subjects := []core.EndpointID{id("a", 1), id("b", 2), id("c", 3)}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Subscribe(func([]core.EndpointID) {})
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if f := s.Faulty(); len(f) > len(subjects) {
					t.Errorf("Faulty = %v, more than the %d subjects reported", f, len(subjects))
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Report(id("obs", uint64(i)), subjects[i%len(subjects)])
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Clear(subjects[i%len(subjects)])
			}
		}()
	}
	wg.Wait()
}
