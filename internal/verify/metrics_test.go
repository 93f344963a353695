// Oracle and metamorphic tests for the quantitative tolerance metrics.
// The oracles are models small enough to solve by hand, so the expected
// hitting times pin the value iteration against closed-form answers; the
// metamorphic suite requires every number to be bit-identical across
// worker counts and across the in-RAM and escalated spill tiers.
package verify_test

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"nonmask/internal/program"
	"nonmask/internal/verify"
)

// cycleOracle builds the 3-state chain with a back edge:
//
//	x ∈ {0,1,2}, S: x = 2,  actions 0→1, 1→0, 1→2.
//
// Arbitrary-daemon convergence fails (the daemon can loop 0↔1 forever),
// but under the uniform-random daemon the expected hitting times solve
// exactly: E[2] = 0, E[1] = 1 + (E[0]+E[2])/2 and E[0] = 1 + E[1] give
// E[1] = 3, E[0] = 4.
func cycleOracle(t *testing.T) (*program.Program, *program.Predicate) {
	t.Helper()
	s := program.NewSchema()
	x := s.MustDeclare("x", program.IntRange(0, 2))
	p := program.New("cycle", s)
	step := func(name string, from, to int32) *program.Action {
		return program.NewAction(name, program.Convergence,
			[]program.VarID{x}, []program.VarID{x},
			func(st *program.State) bool { return st.Get(x) == from },
			func(st *program.State) { st.Set(x, to) })
	}
	p.Add(step("a01", 0, 1), step("a10", 1, 0), step("a12", 1, 2))
	S := program.NewPredicate("x=2", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == 2 })
	return p, S
}

func TestMetricsCycleOracle(t *testing.T) {
	p, S := cycleOracle(t)
	rep, err := verify.Check(context.Background(), p, S, nil, verify.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if m == nil {
		t.Fatal("WithMetrics produced no metrics block")
	}
	if rep.Unfair.Converges {
		t.Error("cycle oracle converges under the arbitrary daemon; the 0↔1 loop should refute it")
	}
	if want := []int64{1, 1, 1}; !reflect.DeepEqual(m.Profile, want) {
		t.Errorf("Profile = %v, want %v", m.Profile, want)
	}
	if m.MaxDistance != 2 || m.MeanDistance != 1 {
		t.Errorf("distance: max %d mean %v, want max 2 mean 1", m.MaxDistance, m.MeanDistance)
	}
	if m.WorstMeasured {
		t.Error("WorstMeasured = true on a non-convergent program")
	}
	if !m.ExpectedMeasured {
		t.Fatal("ExpectedMeasured = false; the uniform-random walk hits S with probability 1")
	}
	// Closed form: E[0]=4, E[1]=3 → max 4; the mean ranges over the
	// states outside S, so (4+3)/2 = 3.5.
	if math.Abs(m.ExpectedSteps-4) > 1e-6 {
		t.Errorf("ExpectedSteps = %v, want 4", m.ExpectedSteps)
	}
	if math.Abs(m.MeanExpectedSteps-3.5) > 1e-6 {
		t.Errorf("MeanExpectedSteps = %v, want 3.5", m.MeanExpectedSteps)
	}
}

// chainOracle builds the deterministic chain x ∈ 0..3, S: x = 3,
// x<3 → x++. Every daemon walks the same path, so the shortest distance,
// the worst case, and the expectation all coincide: 3 steps from x=0.
func chainOracle(t *testing.T) (*program.Program, *program.Predicate, verify.ConstraintSpec) {
	t.Helper()
	s := program.NewSchema()
	x := s.MustDeclare("x", program.IntRange(0, 3))
	p := program.New("chain", s)
	p.Add(program.NewAction("inc", program.Convergence,
		[]program.VarID{x}, []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) < 3 },
		func(st *program.State) { st.Set(x, st.Get(x)+1) }))
	S := program.NewPredicate("x=3", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == 3 })
	spec := verify.ConstraintSpec{
		Name: "x>=2",
		Pred: program.NewPredicate("x>=2", []program.VarID{x},
			func(st *program.State) bool { return st.Get(x) >= 2 }),
	}
	return p, S, spec
}

func TestMetricsChainOracle(t *testing.T) {
	p, S, spec := chainOracle(t)
	rep, err := verify.Check(context.Background(), p, S, nil,
		verify.WithMetrics(), verify.WithConstraints(spec))
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if m == nil {
		t.Fatal("WithMetrics produced no metrics block")
	}
	if want := []int64{1, 1, 1, 1}; !reflect.DeepEqual(m.Profile, want) {
		t.Errorf("Profile = %v, want %v", m.Profile, want)
	}
	if !m.WorstMeasured || m.WorstSteps != 3 {
		t.Errorf("worst = (%v, %d), want (true, 3)", m.WorstMeasured, m.WorstSteps)
	}
	if !m.ExpectedMeasured || math.Abs(m.ExpectedSteps-3) > 1e-6 {
		t.Errorf("expected = (%v, %v), want (true, 3)", m.ExpectedMeasured, m.ExpectedSteps)
	}
	// MeanDistance ranges over all reachable T states ((0+1+2+3)/4);
	// MeanExpectedSteps over the states outside S ((1+2+3)/3).
	if m.MeanDistance != 1.5 {
		t.Errorf("MeanDistance = %v, want 1.5", m.MeanDistance)
	}
	if math.Abs(m.MeanExpectedSteps-2) > 1e-6 {
		t.Errorf("MeanExpectedSteps = %v, want 2", m.MeanExpectedSteps)
	}
	if len(m.Constraints) != 1 {
		t.Fatalf("Constraints = %v, want one entry", m.Constraints)
	}
	// "x>=2 holds and stays held" is the closed subset {2,3}: two steps
	// from x=0 reach it, and x++ never leaves it.
	c := m.Constraints[0]
	if !c.Measured || c.WorstSteps != 2 || c.StableStates != 2 {
		t.Errorf("constraint cost = %+v, want measured, worst 2, stable 2", c)
	}
}

// TestMetricsMetamorphic re-runs every checked-in GCL model with metrics
// on across worker counts {1, 4, NumCPU} and across the auto ladder's
// forced escalation to spill, requiring the full metrics block —
// profile, worst and expected times, per-constraint costs — to be
// bit-identical. This is the documented determinism contract of
// MetricsContext.
func TestMetricsMetamorphic(t *testing.T) {
	ctx := context.Background()
	for name, m := range gclModels(t) {
		t.Run(name, func(t *testing.T) {
			specs := make([]verify.ConstraintSpec, 0, len(m.Set.Constraints))
			for _, c := range m.Set.Constraints {
				specs = append(specs, verify.ConstraintSpec{Name: c.Pred.Name, Pred: c.Pred})
			}
			options := func(w int) []verify.Option {
				return []verify.Option{verify.WithWorkers(w), verify.WithMetrics(), verify.WithConstraints(specs...)}
			}
			check := func(w int) *verify.ToleranceMetrics {
				t.Helper()
				rep, err := verify.Check(ctx, m.Program, m.S, m.T, options(w)...)
				if err != nil {
					t.Fatalf("Workers=%d: %v", w, err)
				}
				if rep.Metrics == nil {
					t.Fatalf("Workers=%d: no metrics block", w)
				}
				return rep.Metrics
			}
			base := check(1)
			for _, w := range []int{4, runtime.NumCPU()} {
				if got := check(w); !reflect.DeepEqual(base, got) {
					t.Errorf("Workers=%d metrics diverge:\nbase %+v\ngot  %+v", w, base, got)
				}
			}
			for _, w := range []int{1, 4} {
				if got := checkEscalated(t, m, options(w)...).Metrics; !reflect.DeepEqual(base, got) {
					t.Errorf("escalated Workers=%d metrics diverge:\nbase %+v\ngot  %+v", w, base, got)
				}
			}
		})
	}
}

// TestDistancesMatchesProfile pins DistancesContext (the simulator's
// observable) to the distance profile MetricsContext reports: folding the
// exported table must reproduce the profile histogram exactly.
func TestDistancesMatchesProfile(t *testing.T) {
	p, S := cycleOracle(t)
	rep, err := verify.Check(context.Background(), p, S, nil, verify.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	dist, err := rep.Space.DistancesContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hist := make([]int64, rep.Metrics.MaxDistance+1)
	for _, d := range dist {
		if d >= 0 {
			hist[d]++
		}
	}
	if !reflect.DeepEqual(hist, rep.Metrics.Profile) {
		t.Errorf("folded table %v != profile %v", hist, rep.Metrics.Profile)
	}
}
