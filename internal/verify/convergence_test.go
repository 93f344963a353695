package verify

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"nonmask/internal/obs"
	"nonmask/internal/program"
)

func mustSpace(t *testing.T, p *program.Program, S, T *program.Predicate) *Space {
	t.Helper()
	sp, err := NewSpaceContext(context.Background(), p, S, T, Options{})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return sp
}

func TestConvergenceCounter(t *testing.T) {
	p, S, _ := counter(t, 5, 5)
	sp := mustSpace(t, p, S, program.True())

	res := sp.CheckConvergence()
	if !res.Converges {
		t.Fatalf("counter does not converge: %s", res.Summary())
	}
	if res.WorstSteps != 5 {
		t.Errorf("WorstSteps = %d, want 5", res.WorstSteps)
	}
	// Worst steps from x=0..4 are 5,4,3,2,1; mean = 3.
	if res.MeanSteps != 3 {
		t.Errorf("MeanSteps = %v, want 3", res.MeanSteps)
	}
	if res.StatesOutsideS != 5 {
		t.Errorf("StatesOutsideS = %d, want 5", res.StatesOutsideS)
	}
	if !strings.Contains(res.Summary(), "converges under arbitrary daemon") {
		t.Errorf("Summary = %q", res.Summary())
	}

	fair := sp.CheckFairConvergence()
	if !fair.Converges {
		t.Errorf("counter does not fairly converge: %s", fair.Summary())
	}
}

// cancelInDFS is a context that reports cancellation once the
// arbitrary-daemon pass has counted more than after units of progress:
// the region scan counts every state of the space, so after = Count fires
// during the longest-path DFS that follows it.
type cancelInDFS struct {
	context.Context
	prog  *obs.Progress
	after int64
}

func (c cancelInDFS) Err() error {
	if s := c.prog.Snapshot(); s.Pass == PassConvergeUnfair && s.Done > c.after {
		return context.Canceled
	}
	return nil
}

// TestConvergenceDeepChain runs the longest-path DFS on a region that is
// one path of 2^20 states, on the spill tier: the walk from state 0 keeps
// the whole path on its stack. A cancellation mid-walk returns ctx.Err()
// and caches nothing; the next call computes the exact table.
func TestConvergenceDeepChain(t *testing.T) {
	const n = 1 << 20
	p, S, _ := counter(t, n, n)
	prog, col := &obs.Progress{}, &obs.Collector{}
	sp, err := NewSpaceContext(context.Background(), p, S, program.True(), Options{
		SpaceMode: SpaceSpill, SpillDir: t.TempDir(), Progress: prog, Tracer: col})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	_, err = sp.CheckConvergenceContext(cancelInDFS{context.Background(), prog, sp.Count})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled DFS: err = %v, want %v", err, context.Canceled)
	}
	if done := prog.Snapshot().Done; done <= sp.Count || done >= sp.Count+n {
		t.Fatalf("cancellation landed at progress %d, want inside the DFS (%d, %d)", done, sp.Count, sp.Count+n)
	}

	res, err := sp.CheckConvergenceContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converges || res.WorstSteps != n || res.MeanSteps != float64(n+1)/2 {
		t.Fatalf("deep chain: %s, want worst %d, mean %v", res.Summary(), n, float64(n+1)/2)
	}
	steps, ok := sp.WorstDistances()
	if !ok {
		t.Fatal("WorstDistances: no table for a convergent chain")
	}
	for i, d := range steps {
		if want := int32(n - i); d != want {
			t.Fatalf("steps[%d] = %d, want %d", i, d, want)
		}
	}
	var spans []obs.PassStat
	for _, s := range col.Passes() {
		if s.Pass == PassConvergeUnfair {
			spans = append(spans, s)
		}
	}
	// One finished span: the cancelled pass is abandoned, and
	// WorstDistances reads the cached table. The stack held the whole path.
	if len(spans) != 1 || spans[0].Frontier != n {
		t.Fatalf("converge_unfair spans = %+v, want one with Frontier %d", spans, n)
	}
}

// TestUnfairVerdictConcurrentCallers races verdict and table callers on a
// fresh space: they share one computation and one span.
func TestUnfairVerdictConcurrentCallers(t *testing.T) {
	const n = 1 << 12
	p, S, _ := counter(t, n, n)
	col := &obs.Collector{}
	ctx := context.Background()
	sp, err := NewSpaceContext(ctx, p, S, program.True(), Options{Tracer: col})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				if res, err := sp.CheckConvergenceContext(ctx); err != nil || res.WorstSteps != n {
					t.Errorf("verdict = %v, %v; want worst %d", res, err, n)
				}
			} else if steps, ok, err := sp.WorstDistancesContext(ctx); err != nil || !ok || steps[0] != n {
				t.Errorf("table ok=%v err=%v; want steps[0] = %d", ok, err, n)
			}
		}()
	}
	wg.Wait()
	spans := 0
	for _, s := range col.Passes() {
		if s.Pass == PassConvergeUnfair {
			spans++
		}
	}
	if spans != 1 {
		t.Fatalf("%d converge_unfair spans, want 1", spans)
	}
}

func TestConvergenceDeadlock(t *testing.T) {
	// Only action: x=2 -> x:=1. State x=0 is terminal outside S={x=1}.
	s := program.NewSchema()
	x := s.MustDeclare("x", program.IntRange(0, 2))
	p := program.New("deadlock", s)
	p.Add(program.NewAction("fix", program.Closure,
		[]program.VarID{x}, []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == 2 },
		func(st *program.State) { st.Set(x, 1) }))
	S := program.NewPredicate("x=1", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == 1 })
	sp := mustSpace(t, p, S, program.True())

	res := sp.CheckConvergence()
	if res.Converges {
		t.Fatal("deadlocked program reported convergent")
	}
	if res.Deadlock == nil || res.Deadlock.Get(x) != 0 {
		t.Errorf("Deadlock = %v, want state x=0", res.Deadlock)
	}
	if !strings.Contains(res.Summary(), "deadlock") {
		t.Errorf("Summary = %q", res.Summary())
	}

	fair := sp.CheckFairConvergence()
	if fair.Converges || fair.Deadlock == nil {
		t.Error("fair check missed the deadlock")
	}
}

// toggleProgram is the canonical fairness separator: with y false, action
// "flip" toggles x forever while action "done" sets y. An unfair daemon can
// run flip exclusively; a weakly fair daemon must eventually run done,
// since done is continuously enabled.
func toggleProgram(t *testing.T) (*program.Program, *program.Predicate) {
	t.Helper()
	s := program.NewSchema()
	x := s.MustDeclare("x", program.Bool())
	y := s.MustDeclare("y", program.Bool())
	p := program.New("toggle", s)
	p.Add(
		program.NewAction("flip", program.Closure,
			[]program.VarID{x, y}, []program.VarID{x},
			func(st *program.State) bool { return !st.Bool(y) },
			func(st *program.State) { st.SetBool(x, !st.Bool(x)) }),
		program.NewAction("done", program.Convergence,
			[]program.VarID{y}, []program.VarID{y},
			func(st *program.State) bool { return !st.Bool(y) },
			func(st *program.State) { st.SetBool(y, true) }),
	)
	S := program.NewPredicate("y", []program.VarID{y},
		func(st *program.State) bool { return st.Bool(y) })
	return p, S
}

func TestConvergenceFairnessSeparation(t *testing.T) {
	// The paper's Section 8 remark: fairness is often unnecessary — but not
	// always. This program converges only under the fair daemon.
	p, S := toggleProgram(t)
	sp := mustSpace(t, p, S, program.True())

	unfair := sp.CheckConvergence()
	if unfair.Converges {
		t.Fatal("toggle program converges under arbitrary daemon; expected livelock")
	}
	if len(unfair.Cycle) == 0 {
		t.Errorf("no cycle witness: %s", unfair.Summary())
	}

	fair := sp.CheckFairConvergence()
	if !fair.Converges {
		t.Fatalf("toggle program does not fairly converge: %s", fair.Summary())
	}
}

func TestConvergenceSelfLoopStutter(t *testing.T) {
	// A no-op action enabled outside S is an unfair livelock but harmless
	// under weak fairness (the productive action is continuously enabled).
	s := program.NewSchema()
	x := s.MustDeclare("x", program.IntRange(0, 1))
	p := program.New("stutter", s)
	p.Add(
		program.NewAction("noop", program.Closure,
			[]program.VarID{x}, nil,
			func(st *program.State) bool { return st.Get(x) == 0 },
			func(st *program.State) {}),
		program.NewAction("go", program.Convergence,
			[]program.VarID{x}, []program.VarID{x},
			func(st *program.State) bool { return st.Get(x) == 0 },
			func(st *program.State) { st.Set(x, 1) }),
	)
	S := program.NewPredicate("x=1", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == 1 })
	sp := mustSpace(t, p, S, program.True())

	if res := sp.CheckConvergence(); res.Converges {
		t.Error("stutter program converges under arbitrary daemon")
	}
	if res := sp.CheckFairConvergence(); !res.Converges {
		t.Errorf("stutter program does not fairly converge: %s", res.Summary())
	}
}

func TestConvergenceFairLivelock(t *testing.T) {
	// Two states 0 <-> 1 with S = {2} reachable only via x=1 -> 2, but the
	// escaping action is NOT continuously enabled along the 0<->1 loop, so
	// the loop is weakly fair: no convergence under either daemon.
	s := program.NewSchema()
	x := s.MustDeclare("x", program.IntRange(0, 2))
	p := program.New("fairloop", s)
	p.Add(
		program.NewAction("up", program.Closure,
			[]program.VarID{x}, []program.VarID{x},
			func(st *program.State) bool { return st.Get(x) == 0 },
			func(st *program.State) { st.Set(x, 1) }),
		program.NewAction("down", program.Closure,
			[]program.VarID{x}, []program.VarID{x},
			func(st *program.State) bool { return st.Get(x) == 1 },
			func(st *program.State) { st.Set(x, 0) }),
		program.NewAction("escape", program.Closure,
			[]program.VarID{x}, []program.VarID{x},
			func(st *program.State) bool { return st.Get(x) == 1 },
			func(st *program.State) { st.Set(x, 2) }),
	)
	S := program.NewPredicate("x=2", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == 2 })
	sp := mustSpace(t, p, S, program.True())

	if res := sp.CheckConvergence(); res.Converges {
		t.Error("fairloop converges under arbitrary daemon")
	}
	res := sp.CheckFairConvergence()
	if res.Converges {
		t.Error("fairloop fairly converges; the 0<->1 loop is weakly fair")
	}
	if len(res.Cycle) != 2 {
		t.Errorf("fair cycle witness has %d states, want 2", len(res.Cycle))
	}
	if !strings.Contains(res.Summary(), "weakly fair daemon") {
		t.Errorf("Summary = %q", res.Summary())
	}
}

func TestConvergenceEscapeFromT(t *testing.T) {
	// T = x <= 1, but action at x=1 jumps to x=2: closure failure surfaces
	// as an Escape during convergence checking.
	s := program.NewSchema()
	x := s.MustDeclare("x", program.IntRange(0, 2))
	p := program.New("escape", s)
	p.Add(program.NewAction("jump", program.Closure,
		[]program.VarID{x}, []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == 1 },
		func(st *program.State) { st.Set(x, 2) }))
	S := program.NewPredicate("x=0", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == 0 })
	T := program.NewPredicate("x<=1", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) <= 1 })
	sp := mustSpace(t, p, S, T)

	res := sp.CheckConvergence()
	if res.Converges || res.Escape == nil {
		t.Errorf("escape not detected: %+v", res)
	}
	fres := sp.CheckFairConvergence()
	if fres.Converges || fres.Escape == nil {
		t.Errorf("fair escape not detected: %+v", fres)
	}
}

func TestConvergenceRestrictedToT(t *testing.T) {
	// Outside T the program misbehaves, but convergence is only required
	// from T: T = x<=3 with S = x=0 and a decrement action; states above 3
	// would deadlock but are not in T.
	s := program.NewSchema()
	x := s.MustDeclare("x", program.IntRange(0, 9))
	p := program.New("dec", s)
	p.Add(program.NewAction("dec", program.Closure,
		[]program.VarID{x}, []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) >= 1 && st.Get(x) <= 3 },
		func(st *program.State) { st.Set(x, st.Get(x)-1) }))
	S := program.NewPredicate("x=0", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == 0 })
	T := program.NewPredicate("x<=3", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) <= 3 })
	sp := mustSpace(t, p, S, T)

	res := sp.CheckConvergence()
	if !res.Converges {
		t.Fatalf("restricted convergence failed: %s", res.Summary())
	}
	if res.WorstSteps != 3 {
		t.Errorf("WorstSteps = %d, want 3", res.WorstSteps)
	}
}

func TestWorstDistances(t *testing.T) {
	p, S, _ := counter(t, 5, 5)
	sp := mustSpace(t, p, S, program.True())
	dist, ok := sp.WorstDistances()
	if !ok {
		t.Fatal("WorstDistances failed on convergent program")
	}
	for i := int64(0); i <= 5; i++ {
		want := int32(5 - i)
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
}

func TestWorstDistancesFailsOnLivelock(t *testing.T) {
	p, S := toggleProgram(t)
	sp := mustSpace(t, p, S, program.True())
	if _, ok := sp.WorstDistances(); ok {
		t.Error("WorstDistances succeeded on non-convergent program")
	}
}

func TestWorstDistancesBranching(t *testing.T) {
	// Two paths to S: the worst-case metric takes the max over daemon
	// choices, not the min. From x=0: "slow" goes 0->1->2->3(S), "fast"
	// goes 0->3 directly; worst is 3 steps.
	s := program.NewSchema()
	x := s.MustDeclare("x", program.IntRange(0, 3))
	p := program.New("branch", s)
	p.Add(
		program.NewAction("slow", program.Closure,
			[]program.VarID{x}, []program.VarID{x},
			func(st *program.State) bool { return st.Get(x) < 3 },
			func(st *program.State) { st.Set(x, st.Get(x)+1) }),
		program.NewAction("fast", program.Closure,
			[]program.VarID{x}, []program.VarID{x},
			func(st *program.State) bool { return st.Get(x) == 0 },
			func(st *program.State) { st.Set(x, 3) }),
	)
	S := program.NewPredicate("x=3", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == 3 })
	sp := mustSpace(t, p, S, program.True())
	res := sp.CheckConvergence()
	if !res.Converges || res.WorstSteps != 3 {
		t.Errorf("WorstSteps = %d (converges=%v), want 3", res.WorstSteps, res.Converges)
	}
	dist, _ := sp.WorstDistances()
	if dist[0] != 3 {
		t.Errorf("dist[0] = %d, want 3", dist[0])
	}
}
