package netsim

import (
	"fmt"
	"math"
	"testing"

	"gridroute/internal/grid"
	"gridroute/internal/spacetime"
)

// incWindow computes the batch replay window for a schedule set.
func incWindow(schedules []*spacetime.Schedule) (int64, int64) {
	minT, maxT := int64(0), int64(-1)
	first := true
	for _, s := range schedules {
		if s == nil {
			continue
		}
		end := s.StartT + int64(len(s.Moves))
		if first {
			minT, maxT = s.StartT, end
			first = false
			continue
		}
		if s.StartT < minT {
			minT = s.StartT
		}
		if end > maxT {
			maxT = end
		}
	}
	if maxT < minT {
		maxT = minT
	}
	return minT, maxT
}

// TestIncrementalMatchesBatch feeds the same schedule set — deliveries,
// holds, a nil, a late delivery, a link overflow and a buffer overflow —
// through the one-at-a-time verifier and the batch Replayer and checks the
// outcomes, peak occupancies and violation verdicts agree under both models.
func TestIncrementalMatchesBatch(t *testing.T) {
	g := grid.Line(8, 1, 1)
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{3}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{0}, Dst: grid.Vec{3}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 2, Src: grid.Vec{4}, Dst: grid.Vec{6}, Arrival: 1, Deadline: grid.InfDeadline},
		{ID: 3, Src: grid.Vec{4}, Dst: grid.Vec{5}, Arrival: 1, Deadline: grid.InfDeadline},
		{ID: 4, Src: grid.Vec{2}, Dst: grid.Vec{7}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 5, Src: grid.Vec{6}, Dst: grid.Vec{7}, Arrival: 2, Deadline: grid.InfDeadline},
		{ID: 6, Src: grid.Vec{0}, Dst: grid.Vec{1}, Arrival: 3, Deadline: 3},
	}
	schedules := []*spacetime.Schedule{
		// 0 and 1 share every link in every step: c=1 overflows.
		mkSchedule(&reqs[0], 0, 0, 0),
		mkSchedule(&reqs[1], 0, 0, 0),
		// 2 and 3 both hold at node 4 during step 1: B=1 overflows (Model 1);
		// under Model 2 their shared presence overflows too.
		mkSchedule(&reqs[2], spacetime.Hold, 0, 0),
		mkSchedule(&reqs[3], spacetime.Hold, spacetime.Hold, 0),
		nil, // rejected packet
		mkSchedule(&reqs[5], 0),
		// Holds before moving: delivered at t=5 > deadline 3 → late.
		mkSchedule(&reqs[6], spacetime.Hold, spacetime.Hold, 0),
	}

	for _, model := range []Model{Model1, Model2} {
		batch := ReplaySchedules(g, reqs, schedules, model)

		minT, maxT := incWindow(schedules)
		inc := NewIncremental(g, model, minT, maxT)
		for round := 0; round < 2; round++ {
			for i := range reqs {
				got := inc.Add(&reqs[i], schedules[i])
				want := batch.Outcomes[i]
				if got.Kind != want.Kind || got.DeliveredAt != want.DeliveredAt || got.OnTime != want.OnTime {
					t.Fatalf("model %v round %d req %d: incremental %+v vs batch %+v", model, round, i, got, want)
				}
			}
			if inc.MaxBuffer() != batch.MaxBuffer || inc.MaxLink() != batch.MaxLink {
				t.Fatalf("model %v round %d: peaks (%d,%d) vs batch (%d,%d)",
					model, round, inc.MaxBuffer(), inc.MaxLink(), batch.MaxBuffer, batch.MaxLink)
			}
			// Violation strings differ by design (first-exceed vs final
			// count); the verdict must not.
			if (len(inc.Violations()) == 0) != (len(batch.Violation) == 0) {
				t.Fatalf("model %v round %d: incremental violations %v vs batch %v",
					model, round, inc.Violations(), batch.Violation)
			}
			// Warm reuse: a Reset verifier must reproduce itself exactly.
			inc.Reset(minT, maxT)
			if inc.Added() != 0 || len(inc.Violations()) != 0 || inc.MaxBuffer() != 0 || inc.MaxLink() != 0 {
				t.Fatal("Reset left residual state")
			}
		}
	}
}

// TestIncrementalCleanRunNoViolations checks a conflict-free schedule set
// replays without violations and counts Added correctly.
func TestIncrementalCleanRunNoViolations(t *testing.T) {
	g := grid.Line(8, 2, 2)
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{2}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{3}, Dst: grid.Vec{5}, Arrival: 0, Deadline: grid.InfDeadline},
	}
	schedules := []*spacetime.Schedule{
		mkSchedule(&reqs[0], 0, spacetime.Hold, 0),
		mkSchedule(&reqs[1], 0, 0),
	}
	minT, maxT := incWindow(schedules)
	inc := NewIncremental(g, Model1, minT, maxT)
	for i := range reqs {
		if o := inc.Add(&reqs[i], schedules[i]); o.Kind != Delivered || !o.OnTime {
			t.Fatalf("req %d outcome %+v", i, o)
		}
	}
	if inc.Added() != 2 || len(inc.Violations()) != 0 {
		t.Fatalf("added %d violations %v", inc.Added(), inc.Violations())
	}
}

// TestIncrementalWindowGuard checks schedules outside the declared window
// are flagged instead of corrupting the occupancy arrays.
func TestIncrementalWindowGuard(t *testing.T) {
	g := grid.Line(8, 2, 2)
	r := grid.Request{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{2}, Arrival: 9, Deadline: grid.InfDeadline}
	s := mkSchedule(&r, 0, 0)
	inc := NewIncremental(g, Model1, 0, 5)
	if o := inc.Add(&r, s); o.Kind == Delivered {
		t.Fatal("out-of-window schedule must not deliver")
	}
	if len(inc.Violations()) == 0 {
		t.Fatal("out-of-window schedule must be flagged")
	}
}

// TestLinkLayoutWindowEdges overflows the two link cells at the extremes of
// the untilted layout on a non-square 2-D grid: the lowest w a link can
// have (a move out of a node with Σx = diam−1 at minT) and the highest (a
// move out of the origin at maxT−1). Both verifiers must report exactly the
// same violations, naming the node, axis and real time of each link.
func TestLinkLayoutWindowEdges(t *testing.T) {
	g := grid.New([]int{3, 5}, 3, 1) // diam 6; node (2,3) has Σx = 5
	reqs := []grid.Request{
		{ID: 0, Src: grid.Vec{2, 3}, Dst: grid.Vec{2, 4}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 1, Src: grid.Vec{2, 3}, Dst: grid.Vec{2, 4}, Arrival: 0, Deadline: grid.InfDeadline},
		{ID: 2, Src: grid.Vec{0, 0}, Dst: grid.Vec{2, 1}, Arrival: 2, Deadline: grid.InfDeadline},
		{ID: 3, Src: grid.Vec{0, 0}, Dst: grid.Vec{1, 0}, Arrival: 7, Deadline: grid.InfDeadline},
		{ID: 4, Src: grid.Vec{0, 0}, Dst: grid.Vec{1, 0}, Arrival: 7, Deadline: grid.InfDeadline},
	}
	schedules := []*spacetime.Schedule{
		mkSchedule(&reqs[0], 1),
		mkSchedule(&reqs[1], 1),
		// A bent run through the middle of the window, conflict-free.
		mkSchedule(&reqs[2], 0, spacetime.Hold, 1, 0),
		mkSchedule(&reqs[3], 0),
		mkSchedule(&reqs[4], 0),
	}
	want := []string{
		"link capacity exceeded: node 13 axis 1 t=0: 2 > 1",
		"link capacity exceeded: node 0 axis 0 t=7: 2 > 1",
	}
	minT, maxT := incWindow(schedules)
	if minT != 0 || maxT != 8 {
		t.Fatalf("window [%d,%d], want [0,8]", minT, maxT)
	}
	for _, model := range []Model{Model1, Model2} {
		batch := ReplaySchedules(g, reqs, schedules, model)
		inc := NewIncremental(g, model, minT, maxT)
		for i := range reqs {
			if o := inc.Add(&reqs[i], schedules[i]); o != batch.Outcomes[i] || o.Kind != Delivered {
				t.Fatalf("model %v req %d: incremental %+v vs batch %+v", model, i, o, batch.Outcomes[i])
			}
		}
		for name, got := range map[string][]string{"batch": batch.Violation, "incremental": inc.Violations()} {
			if len(got) != len(want) {
				t.Fatalf("model %v %s violations %q, want %q", model, name, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("model %v %s violations %q, want %q", model, name, got, want)
				}
			}
		}
	}
}

// TestIncrementalCounterSaturates overloads one link and one buffer slot
// past the 2-byte counter range: the counts stop at math.MaxUint16 instead
// of wrapping back under capacity, so every further add is still flagged.
func TestIncrementalCounterSaturates(t *testing.T) {
	const adds = math.MaxUint16 + 10
	g := grid.Line(4, 3, 3)
	r := grid.Request{ID: 0, Src: grid.Vec{0}, Dst: grid.Vec{1}, Arrival: 0, Deadline: grid.InfDeadline}
	s := mkSchedule(&r, spacetime.Hold, 0)
	inc := NewIncremental(g, Model1, 0, 2)
	for i := 0; i < adds; i++ {
		if o := inc.Add(&r, s); o.Kind != Delivered {
			t.Fatalf("add %d: outcome %+v", i, o)
		}
	}
	if inc.MaxLink() != math.MaxUint16 || inc.MaxBuffer() != math.MaxUint16 {
		t.Fatalf("peaks (%d,%d), want both %d", inc.MaxBuffer(), inc.MaxLink(), math.MaxUint16)
	}
	// One buffer and one link violation per add beyond capacity 3.
	if got, want := len(inc.Violations()), 2*(adds-3); got != want {
		t.Fatalf("%d violations, want %d", got, want)
	}
	last := inc.Violations()[len(inc.Violations())-1]
	if want := fmt.Sprintf("link capacity exceeded: node 0 axis 0 t=1: %d > 3", math.MaxUint16); last != want {
		t.Fatalf("last violation %q, want %q", last, want)
	}
}

// TestIncrementalResetClearsDirtyCounters dirties a verifier, then Resets it
// to a smaller window (reusing and clearing a prefix of its arrays) and to
// the original one again (growing back over cells the small Reset left
// dirty): both start from zero and replay the same traffic to the same
// peaks. A Reset to a larger window allocates fresh arrays and starts from
// zero too. Each fill ends at the top of its window, so it dirties the cells
// at the far end of the arrays.
func TestIncrementalResetClearsDirtyCounters(t *testing.T) {
	g := grid.Line(8, 3, 3)
	fill := func(inc *Incremental, maxT int64) {
		t.Helper()
		base := maxT - 10
		for i := 0; i < 6; i++ {
			r := &grid.Request{ID: i, Src: grid.Vec{3 + i%3}, Dst: grid.Vec{7}, Arrival: base + int64(i), Deadline: grid.InfDeadline}
			s := mkSchedule(r, spacetime.Hold)
			for x := r.Src[0]; x < r.Dst[0]; x++ {
				s.Moves = append(s.Moves, 0)
			}
			if o := inc.Add(r, s); o.Kind != Delivered {
				t.Fatalf("req %d: outcome %+v", i, o)
			}
		}
	}
	zero := func(inc *Incremental, what string) {
		t.Helper()
		if inc.Added() != 0 || inc.MaxBuffer() != 0 || inc.MaxLink() != 0 || len(inc.Violations()) != 0 {
			t.Fatalf("%s: residual state", what)
		}
		for name, c := range map[string]tally{"links": inc.links, "bufs": inc.bufs} {
			for i, n := range c {
				if n != 0 {
					t.Fatalf("%s: %s counter %d = %d", what, name, i, n)
				}
			}
		}
	}

	inc := NewIncremental(g, Model1, 0, 20)
	fill(inc, 20)
	peakBuf, peakLink := inc.MaxBuffer(), inc.MaxLink()
	if peakBuf == 0 || peakLink == 0 || len(inc.Violations()) != 0 {
		t.Fatalf("fill: peaks (%d,%d) violations %v", peakBuf, peakLink, inc.Violations())
	}
	for _, w := range []struct {
		what  string
		maxT  int64
		fresh bool
	}{
		{"smaller window", 12, false},
		{"original window", 20, false},
		{"larger window", 60, true},
	} {
		links := inc.links
		inc.Reset(0, w.maxT)
		if fresh := &inc.links[0] != &links[0]; fresh != w.fresh {
			t.Fatalf("%s: fresh arrays %v, want %v", w.what, fresh, w.fresh)
		}
		zero(inc, w.what)
		fill(inc, w.maxT)
		if inc.MaxBuffer() != peakBuf || inc.MaxLink() != peakLink || len(inc.Violations()) != 0 {
			t.Fatalf("%s: peaks (%d,%d) violations %v, want (%d,%d) and none",
				w.what, inc.MaxBuffer(), inc.MaxLink(), inc.Violations(), peakBuf, peakLink)
		}
	}
}
