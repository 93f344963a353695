package tokenring

import (
	"context"
	"math/rand"
	"testing"

	"nonmask/internal/ctheory"
	"nonmask/internal/daemon"
	"nonmask/internal/program"
	"nonmask/internal/sim"
	"nonmask/internal/verify"
)

func TestNewPathRejectsBadParams(t *testing.T) {
	if _, err := NewPath(0, 4); err == nil {
		t.Error("NewPath(0, 4) succeeded")
	}
	if _, err := NewPath(3, 1); err == nil {
		t.Error("NewPath(3, 1) succeeded")
	}
}

func TestNewRingRejectsBadParams(t *testing.T) {
	if _, err := NewRing(0, 4); err == nil {
		t.Error("NewRing(0, 4) succeeded")
	}
	if _, err := NewRing(3, 1); err == nil {
		t.Error("NewRing(3, 1) succeeded")
	}
}

// TestPathTheorem3Validates reproduces the Section 7.1 design argument:
// the two-layer partition satisfies Theorem 3 (per-layer path graphs are
// self-looping; closure and higher-layer actions preserve lower layers
// while each layer's target is open).
func TestPathTheorem3Validates(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{2, 3}, {3, 4}, {4, 5}} {
		inst, err := NewPath(tc.n, tc.k)
		if err != nil {
			t.Fatalf("NewPath: %v", err)
		}
		r, all, err := inst.Design.Validate(verify.Exhaustive, verify.Options{})
		if err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if r == nil {
			for _, rep := range all {
				t.Logf("%s", rep)
			}
			t.Fatalf("N=%d K=%d: no theorem applies", tc.n, tc.k)
		}
		if r.Theorem != ctheory.Theorem3 {
			t.Errorf("N=%d K=%d: validated by %v, want Theorem 3", tc.n, tc.k, r.Theorem)
		}
		if len(r.LayerGraphs) != 2 {
			t.Errorf("layer graphs = %d, want 2", len(r.LayerGraphs))
		}
	}
}

// TestPathStabilizes model-checks the ground truth: from every state the
// layered path program converges to S, under the arbitrary daemon.
func TestPathStabilizes(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{2, 3}, {3, 4}, {4, 4}, {4, 5}} {
		inst, err := NewPath(tc.n, tc.k)
		if err != nil {
			t.Fatalf("NewPath: %v", err)
		}
		res, err := inst.Design.Verify(verify.Options{})
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if res.Closure != nil {
			t.Fatalf("N=%d K=%d closure violated: %v", tc.n, tc.k, res.Closure)
		}
		if !res.Unfair.Converges {
			t.Fatalf("N=%d K=%d not stabilizing: %s", tc.n, tc.k, res.Unfair.Summary())
		}
		t.Logf("path N=%d K=%d: worst %d steps, mean %.2f",
			tc.n, tc.k, res.Unfair.WorstSteps, res.Unfair.MeanSteps)
	}
}

// TestPathSHasOnePrivilege checks the designed invariant's intent: in every
// S state, either all values are equal (node 0 privileged) or there is
// exactly one decrease (that node's successor privileged).
func TestPathSHasOnePrivilege(t *testing.T) {
	inst, err := NewPath(3, 4)
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	schema := inst.Design.Schema
	count, _ := schema.StateCount()
	inS := 0
	for i := int64(0); i < count; i++ {
		st := schema.StateAt(i)
		if !inst.Design.S.Holds(st) {
			continue
		}
		inS++
		decreases := 0
		for j := 0; j < inst.N; j++ {
			d := st.Get(inst.X[j]) - st.Get(inst.X[j+1])
			if d < 0 {
				t.Fatalf("S state %s has an increase", st)
			}
			if d > 0 {
				decreases++
				if d != 1 {
					t.Fatalf("S state %s decreases by %d", st, d)
				}
			}
		}
		if decreases > 1 {
			t.Fatalf("S state %s has %d decreases", st, decreases)
		}
	}
	if inS == 0 {
		t.Fatal("no S states found")
	}
}

// TestPathCombinedEquivalence verifies the paper's final combination step:
// the printed two-action program has the same transition relation as the
// design's separate closure + convergence actions.
func TestPathCombinedEquivalence(t *testing.T) {
	inst, err := NewPath(3, 3)
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	schema := inst.Design.Schema
	full := inst.Design.TolerantProgram()
	count, _ := schema.StateCount()
	for i := int64(0); i < count; i++ {
		st := schema.StateAt(i)
		a := successorSet(full, st, schema)
		b := successorSet(inst.Combined, st, schema)
		if !sameSet(a, b) {
			t.Fatalf("transition relations differ at %s", st)
		}
	}
}

func successorSet(p *program.Program, st *program.State, schema *program.Schema) map[int64]bool {
	out := map[int64]bool{}
	for _, a := range p.Actions {
		if a.Guard(st) {
			out[schema.Index(a.Apply(st))] = true
		}
	}
	return out
}

func sameSet(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestRingAtLeastOnePrivilege checks the pigeonhole property: every state
// of the ring has at least one privileged node.
func TestRingAtLeastOnePrivilege(t *testing.T) {
	inst, err := NewRing(3, 3)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	schema := inst.P.Schema
	count, _ := schema.StateCount()
	for i := int64(0); i < count; i++ {
		st := schema.StateAt(i)
		if inst.PrivilegeCount(st) < 1 {
			t.Fatalf("state %s has no privilege", st)
		}
	}
}

// TestRingStabilizesForLargeK model-checks Dijkstra's guarantee: with
// K >= N+1 (K at least the node count), the ring converges to exactly one
// privilege from every state, under the arbitrary daemon, and S is closed.
func TestRingStabilizesForLargeK(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{2, 3}, {2, 4}, {3, 4}, {4, 5}} {
		inst, err := NewRing(tc.n, tc.k)
		if err != nil {
			t.Fatalf("NewRing: %v", err)
		}
		sp, err := verify.NewSpaceContext(context.Background(), inst.P, inst.S, program.True(), verify.Options{})
		if err != nil {
			t.Fatalf("NewSpace: %v", err)
		}
		if v := sp.CheckClosed(inst.S, nil); v != nil {
			t.Fatalf("N=%d K=%d: S not closed: %v", tc.n, tc.k, v)
		}
		res := sp.CheckConvergence()
		if !res.Converges {
			t.Fatalf("N=%d K=%d: not stabilizing: %s", tc.n, tc.k, res.Summary())
		}
		t.Logf("ring N=%d K=%d: worst %d steps, mean %.2f",
			tc.n, tc.k, res.WorstSteps, res.MeanSteps)
	}
}

// TestRingSmallKFails demonstrates the K bound: with K = 2 and at least 4
// nodes the ring admits an execution that never reaches a single-privilege
// state.
func TestRingSmallKFails(t *testing.T) {
	inst, err := NewRing(3, 2) // 4 nodes, K=2
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	sp, err := verify.NewSpaceContext(context.Background(), inst.P, inst.S, program.True(), verify.Options{})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	res := sp.CheckConvergence()
	if res.Converges {
		t.Fatal("N=3 K=2 ring reported stabilizing; expected a livelock")
	}
	if len(res.Cycle) == 0 {
		t.Errorf("no cycle witness: %s", res.Summary())
	}
}

// TestRingTokenCirculates checks the service property in the legitimate
// states: the privilege passes around the ring in order, visiting every
// node.
func TestRingTokenCirculates(t *testing.T) {
	inst, err := NewRing(4, 6)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	visited := make(map[int]int)
	r := &sim.Runner{
		P: inst.P, S: inst.S,
		D:        daemon.NewRoundRobin(inst.P),
		MaxSteps: 300,
		OnStep: func(_ int, st *program.State, _ *program.Action) {
			if h := inst.PrivilegeHolder(st); h >= 0 {
				visited[h]++
			}
		},
	}
	res := r.Run(inst.AllZero(), nil)
	if res.Deadlocked {
		t.Fatalf("ring deadlocked: %s", res)
	}
	for j := 0; j <= inst.N; j++ {
		if visited[j] < 5 {
			t.Errorf("node %d held the privilege %d times in 300 steps", j, visited[j])
		}
	}
}

// TestRingExactlyOnePrivilegeInSuffix: after stabilization from a corrupt
// state, every subsequent state has exactly one privilege (spec (i)), and
// privileges rotate (spec (ii)).
func TestRingExactlyOnePrivilegeInSuffix(t *testing.T) {
	inst, err := NewRing(6, 8)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		st := program.RandomState(inst.P.Schema, rng)
		r := &sim.Runner{
			P: inst.P, S: inst.S,
			D:        daemon.NewRandom(int64(trial)),
			MaxSteps: 5000,
			StopAtS:  true,
		}
		res := r.Run(st, rng)
		if !res.Converged {
			t.Fatalf("trial %d did not converge", trial)
		}
		// Continue from the converged state: exactly one privilege forever.
		cont := &sim.Runner{
			P: inst.P, S: inst.S,
			D:        daemon.NewRandom(int64(trial) + 1000),
			MaxSteps: 500,
			OnStep: func(_ int, st *program.State, _ *program.Action) {
				if c := inst.PrivilegeCount(st); c != 1 {
					t.Fatalf("trial %d: %d privileges after convergence", trial, c)
				}
			},
		}
		cont.Run(res.Final, rng)
	}
}

// TestRingConvergenceUnderAdversary drives a large ring (beyond the model
// checker) with the violation-maximizing unfair daemon.
func TestRingConvergenceUnderAdversary(t *testing.T) {
	inst, err := NewRing(63, 65)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	metric := func(st *program.State) float64 {
		return float64(inst.PrivilegeCount(st))
	}
	r := &sim.Runner{
		P: inst.P, S: inst.S,
		D:        daemon.NewAdversarial("max-privileges", metric),
		MaxSteps: 500_000,
		StopAtS:  true,
	}
	rng := rand.New(rand.NewSource(8))
	batch := r.RunMany(10, rng, sim.RandomStates(inst.P.Schema))
	if batch.ConvergenceRate() != 1 {
		t.Fatalf("adversarial convergence rate = %.2f", batch.ConvergenceRate())
	}
}

func TestFootprintsHonest(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pathInst, err := NewPath(4, 5)
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	if err := pathInst.Design.TolerantProgram().Audit(rng, 100); err != nil {
		t.Error(err)
	}
	if err := pathInst.Combined.Audit(rng, 100); err != nil {
		t.Error(err)
	}
	ringInst, err := NewRing(4, 5)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	if err := ringInst.P.Audit(rng, 100); err != nil {
		t.Error(err)
	}
}

// TestRingCirculationProved verifies the paper's spec (ii) — "each
// privileged node eventually yields its privilege to its successor in the
// ring" — exactly, with the leads-to checker: within S, Privileged(j)
// leads to Privileged(j+1), for every j, under the arbitrary daemon.
func TestRingCirculationProved(t *testing.T) {
	inst, err := NewRing(3, 5)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	// Region = S (after stabilization); closure of S is checked elsewhere.
	sp, err := verify.NewSpaceContext(context.Background(), inst.P, inst.S, inst.S, verify.Options{})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	for j := 0; j <= inst.N; j++ {
		j := j
		next := (j + 1) % (inst.N + 1)
		pj := program.NewPredicate("priv j", inst.X,
			func(st *program.State) bool { return inst.Privileged(st, j) })
		pn := program.NewPredicate("priv j+1", inst.X,
			func(st *program.State) bool { return inst.Privileged(st, next) })
		res := sp.LeadsTo(pj, pn, false)
		if !res.Holds {
			t.Errorf("privilege does not pass from %d to %d: stuck at %v", j, next, res.Stuck)
		}
	}
}

// TestSIsExactlyOnePrivilege checks, at every state of the ring N=3 K=4, that S
// (which stops counting at the second privileged node) holds exactly when
// one node is privileged, and that PrivilegeHolder names that node.
func TestSIsExactlyOnePrivilege(t *testing.T) {
	inst, err := NewRing(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	schema := inst.P.Schema
	count, _ := schema.StateCount()
	for i := int64(0); i < count; i++ {
		st := schema.StateAt(i)
		one := inst.PrivilegeCount(st) == 1
		if inst.S.Holds(st) != one {
			t.Fatalf("S.Holds(%s) = %v, PrivilegeCount = %d", st, !one, inst.PrivilegeCount(st))
		}
		if h := inst.PrivilegeHolder(st); (h >= 0) != one || (one && !inst.Privileged(st, h)) {
			t.Fatalf("PrivilegeHolder(%s) = %d, PrivilegeCount = %d", st, h, inst.PrivilegeCount(st))
		}
	}
}
