// An independent reference for the engine's convergence checks under both
// daemons, its distance profile and its leads-to verdicts. The oracle
// builds explicit, action-labelled adjacency from the schema's reference
// codec (StateAt, Apply, Index) and shares nothing with the engine — no
// Space, codec, CSR, bitsets or workers — so a bug in enumeration, the
// CSR fill, the longest-path DFS, the fair check's Tarjan pass or the leads-to
// waves cannot hide by being shared with its own check.
package verify_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nonmask/internal/program"
	"nonmask/internal/verify"
)

// oracle is the explicit transition graph of one program with S and T
// evaluated at every full-product state. act[i][k] is the index of the
// action behind the edge succ[i][k].
type oracle struct {
	p        *program.Program
	succ     [][]int64
	act      [][]int
	inS, inT []bool
}

func newOracle(p *program.Program, S, T *program.Predicate) *oracle {
	count, _ := p.Schema.StateCount()
	o := &oracle{p: p, succ: make([][]int64, count), act: make([][]int, count),
		inS: make([]bool, count), inT: make([]bool, count)}
	for i := int64(0); i < count; i++ {
		st := p.Schema.StateAt(i)
		o.inS[i], o.inT[i] = S.Holds(st), T.Holds(st)
		for k, a := range p.Actions {
			if a.Guard(st) {
				o.succ[i] = append(o.succ[i], p.Schema.Index(a.Apply(st)))
				o.act[i] = append(o.act[i], k)
			}
		}
	}
	return o
}

// eval evaluates pred at every state.
func (o *oracle) eval(pred *program.Predicate) []bool {
	in := make([]bool, len(o.succ))
	for i := range in {
		in[i] = pred.Holds(o.p.Schema.StateAt(int64(i)))
	}
	return in
}

func (o *oracle) region(i int64) bool { return o.inT[i] && !o.inS[i] }

// convergence decides arbitrary-daemon convergence by recursive DFS over
// the region T∧¬S: it fails on a region deadlock, an edge leaving T, or a
// region cycle. Otherwise it returns the worst-case number of steps to S
// per state (0 outside the region), computed in DFS postorder, and its
// maximum and mean over the region.
func (o *oracle) convergence() (converges bool, steps []int, worst int, mean float64) {
	const (
		white = iota
		gray
		black
	)
	color := make([]uint8, len(o.succ))
	steps = make([]int, len(o.succ))
	var visit func(i int64) bool
	visit = func(i int64) bool {
		color[i] = gray
		if len(o.succ[i]) == 0 {
			return false
		}
		for _, j := range o.succ[i] {
			if !o.inT[j] {
				return false
			}
			if o.inS[j] {
				steps[i] = max(steps[i], 1)
				continue
			}
			if color[j] == gray || (color[j] == white && !visit(j)) {
				return false
			}
			steps[i] = max(steps[i], steps[j]+1)
		}
		color[i] = black
		return true
	}
	var sum, n int64
	for i := range o.succ {
		if !o.region(int64(i)) {
			continue
		}
		if color[i] == white && !visit(int64(i)) {
			return false, nil, 0, 0
		}
		worst = max(worst, steps[i])
		sum += int64(steps[i])
		n++
	}
	if n > 0 {
		mean = float64(sum) / float64(n)
	}
	return true, steps, worst, mean
}

// profile is the distance-to-S histogram over T by round-based forward
// relaxation: at the start of round r exactly the states at distance < r
// are resolved, so an unresolved region state with a resolved successor
// has distance r. Newly resolved states are applied after the scan, so a
// round never reads its own writes.
func (o *oracle) profile() []int64 {
	dist := make([]int, len(o.succ))
	prof := []int64{0}
	for i := range dist {
		dist[i] = -1
		if o.inS[i] {
			dist[i] = 0
			prof[0]++
		}
	}
	for r := 1; ; r++ {
		var found []int
		for i, row := range o.succ {
			if !o.region(int64(i)) || dist[i] >= 0 {
				continue
			}
			for _, j := range row {
				if dist[j] >= 0 {
					found = append(found, i)
					break
				}
			}
		}
		if len(found) == 0 {
			return prof
		}
		for _, i := range found {
			dist[i] = r
		}
		prof = append(prof, int64(len(found)))
	}
}

// compareOracle checks an engine convergence result, its worst-case steps
// table (WorstDistances, per state) and distance profile against the
// oracle, returning whether the engine reported convergence.
func compareOracle(t *testing.T, label string, o *oracle, sp *verify.Space, res *verify.ConvergenceResult, profile []int64) bool {
	t.Helper()
	var nT, nS, nRegion int64
	for i := range o.succ {
		if o.inT[i] {
			nT++
		}
		if o.inS[i] {
			nS++
		}
		if o.region(int64(i)) {
			nRegion++
		}
	}
	if res.StatesT != nT || res.StatesS != nS || res.StatesOutsideS != nRegion {
		t.Fatalf("%s: state counts (T %d, S %d, T∧¬S %d), oracle (%d, %d, %d)",
			label, res.StatesT, res.StatesS, res.StatesOutsideS, nT, nS, nRegion)
	}
	converges, steps, worst, mean := o.convergence()
	if res.Converges != converges {
		t.Fatalf("%s: engine Converges=%v, oracle %v", label, res.Converges, converges)
	}
	if converges && (res.WorstSteps != worst || res.MeanSteps != mean) {
		t.Fatalf("%s: engine worst %d mean %v, oracle worst %d mean %v",
			label, res.WorstSteps, res.MeanSteps, worst, mean)
	}
	table, ok := sp.WorstDistances()
	if ok != converges || (ok && len(table) != len(steps)) {
		t.Fatalf("%s: WorstDistances has %d entries (ok %v), oracle %d (converges %v)",
			label, len(table), ok, len(steps), converges)
	}
	for i, d := range table {
		if int(d) != steps[i] {
			t.Fatalf("%s: worst-case steps at state %d = %d, oracle %d", label, i, d, steps[i])
		}
	}
	if want := o.profile(); !reflect.DeepEqual(profile, want) {
		t.Fatalf("%s: engine profile %v, oracle %v", label, profile, want)
	}
	return converges
}

// TestUnfairAgreesWithOracle cross-checks the engine's longest-path DFS
// and its distance-profile BFS against the oracle on random transition
// systems, and validates every non-convergence witness against the model.
func TestUnfairAgreesWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	ctx := context.Background()
	convergent, divergent := 0, 0
	for trial := 0; trial < 300; trial++ {
		label := fmt.Sprintf("trial %d", trial)
		p, S := verify.RandomProgram(rng, 2, 2, 2+rng.Intn(2))
		sp, err := verify.NewSpaceContext(ctx, p, S, program.True(), verify.Options{Workers: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatalf("%s: NewSpaceContext: %v", label, err)
		}
		unfair, err := sp.CheckConvergenceContext(ctx)
		if err != nil {
			t.Fatalf("%s: unfair: %v", label, err)
		}
		m, err := sp.MetricsContext(ctx, nil)
		if err != nil {
			t.Fatalf("%s: metrics: %v", label, err)
		}
		if compareOracle(t, label, newOracle(p, S, program.True()), sp, unfair, m.Profile) {
			convergent++
			continue
		}
		divergent++
		validateConvergenceWitness(t, label, sp, unfair)
	}
	if convergent == 0 || divergent == 0 {
		t.Errorf("unbalanced sample: %d convergent, %d divergent; cross-check weak",
			convergent, divergent)
	}
}

// TestOracleAgreesOnModels runs the same cross-check on every checked-in
// GCL model.
func TestOracleAgreesOnModels(t *testing.T) {
	ctx := context.Background()
	for name, m := range gclModels(t) {
		t.Run(name, func(t *testing.T) {
			rep, err := verify.Check(ctx, m.Program, m.S, m.T, verify.WithMetrics())
			if err != nil {
				t.Fatal(err)
			}
			if !compareOracle(t, name, newOracle(m.Program, m.S, m.T), rep.Space, rep.Unfair, rep.Metrics.Profile) {
				validateConvergenceWitness(t, name, rep.Space, rep.Unfair)
			}
		})
	}
}

// fairConverges decides weakly-fair convergence from T to S: it fails on
// a region deadlock, an edge leaving T, or a set of region states a
// weakly fair computation can stay in forever.
func (o *oracle) fairConverges() bool {
	for i, row := range o.succ {
		if !o.region(int64(i)) {
			continue
		}
		if len(row) == 0 {
			return false
		}
		for _, j := range row {
			if !o.inT[j] {
				return false
			}
		}
	}
	return !o.livelock(o.region, true)
}

// leadsTo decides "p leads to q within T": from the T∧p∧¬q states, the
// states reachable along T∧¬q states must hold no terminal state and no
// set a computation (a weakly fair one, if fair) can stay in forever.
// It also returns that reachable set, for witness checks.
func (o *oracle) leadsTo(p, q []bool, fair bool) (bool, []bool) {
	reach := make([]bool, len(o.succ))
	var stack []int64
	for i := range reach {
		if o.inT[i] && p[i] && !q[i] {
			reach[i] = true
			stack = append(stack, int64(i))
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range o.succ[i] {
			if o.inT[j] && !q[j] && !reach[j] {
				reach[j] = true
				stack = append(stack, j)
			}
		}
	}
	for i, in := range reach {
		if in && len(o.succ[i]) == 0 {
			return false, reach
		}
	}
	return !o.livelock(func(i int64) bool { return reach[i] }, fair), reach
}

// livelock reports whether a computation (a weakly fair one, if fair) can
// stay forever among the states in reports true for: whether some
// strongly connected component of that subgraph can hold it.
func (o *oracle) livelock(in func(int64) bool, fair bool) bool {
	for _, comp := range o.sccs(in) {
		if o.canStay(comp, fair) {
			return true
		}
	}
	return false
}

// sccs returns the strongly connected components of the subgraph induced
// by in, by Kosaraju's two passes (forward finishing order, then the
// reversed graph) — a different algorithm from the engine's Tarjan.
func (o *oracle) sccs(in func(int64) bool) [][]int64 {
	n := len(o.succ)
	pred := make([][]int64, n)
	for i, row := range o.succ {
		for _, j := range row {
			if in(int64(i)) && in(j) {
				pred[j] = append(pred[j], int64(i))
			}
		}
	}
	seen := make([]bool, n)
	var order []int64
	var finish func(i int64)
	finish = func(i int64) {
		seen[i] = true
		for _, j := range o.succ[i] {
			if in(j) && !seen[j] {
				finish(j)
			}
		}
		order = append(order, i)
	}
	for i := range n {
		if in(int64(i)) && !seen[i] {
			finish(int64(i))
		}
	}
	var comps [][]int64
	var collect func(i int64)
	collect = func(i int64) {
		seen[i] = false
		comps[len(comps)-1] = append(comps[len(comps)-1], i)
		for _, j := range pred[i] {
			if seen[j] {
				collect(j)
			}
		}
	}
	for k := len(order) - 1; k >= 0; k-- {
		if i := order[k]; seen[i] {
			comps = append(comps, nil)
			collect(i)
		}
	}
	return comps
}

// canStay reports whether a computation can stay in set forever: set
// must hold a transition between two of its states, and with fair also
// every action enabled at all of its states must have a transition that
// stays inside it (otherwise weak fairness forces that action out).
func (o *oracle) canStay(set []int64, fair bool) bool {
	member := make(map[int64]bool, len(set))
	for _, i := range set {
		member[i] = true
	}
	enabledAt := make([]int, len(o.p.Actions))
	internal := make([]bool, len(o.p.Actions))
	edge := false
	for _, i := range set {
		for k, j := range o.succ[i] {
			a := o.act[i][k]
			enabledAt[a]++
			if member[j] {
				internal[a], edge = true, true
			}
		}
	}
	if !edge || !fair {
		return edge
	}
	for a, n := range enabledAt {
		if n == len(set) && !internal[a] {
			return false
		}
	}
	return true
}

// stronglyConnected reports whether every state of set reaches every
// other along edges inside set.
func (o *oracle) stronglyConnected(set []int64) bool {
	member := make(map[int64]bool, len(set))
	for _, i := range set {
		member[i] = true
	}
	comps := o.sccs(func(i int64) bool { return member[i] })
	return len(comps) == 1
}

// checkFairSet validates a weakly-fair Cycle witness: its states lie in
// the set within reports, are strongly connected there, and admit a fair
// run.
func (o *oracle) checkFairSet(t *testing.T, label string, cycle []*program.State, within func(int64) bool) {
	t.Helper()
	set := make([]int64, len(cycle))
	for k, st := range cycle {
		set[k] = o.p.Schema.Index(st)
		if !within(set[k]) {
			t.Fatalf("%s: fair cycle state %s outside the region", label, st)
		}
	}
	if !o.stronglyConnected(set) || !o.canStay(set, true) {
		t.Fatalf("%s: fair cycle %v is not a strongly connected set admitting a fair run", label, cycle)
	}
}

// compareFairLeadsTo checks the engine's weakly-fair verdict and its
// leads-to verdicts, both daemons, for every ordered pair of preds
// against the oracle, and validates every failure witness.
func compareFairLeadsTo(t *testing.T, label string, o *oracle, sp *verify.Space, preds []*program.Predicate) {
	t.Helper()
	ctx := context.Background()
	fair, err := sp.CheckFairConvergenceContext(ctx)
	if err != nil {
		t.Fatalf("%s: fair: %v", label, err)
	}
	if want := o.fairConverges(); fair.Converges != want {
		t.Fatalf("%s: engine fair Converges=%v, oracle %v", label, fair.Converges, want)
	}
	if len(fair.Cycle) > 0 {
		o.checkFairSet(t, label+" fair", fair.Cycle, o.region)
	} else if !fair.Converges {
		validateConvergenceWitness(t, label+" fair", sp, fair)
	}
	bits := make([][]bool, len(preds))
	for k, pred := range preds {
		bits[k] = o.eval(pred)
	}
	for a, p := range preds {
		for b, q := range preds {
			for _, daemon := range []bool{false, true} {
				l := fmt.Sprintf("%s: %s leads to %s (fair %v)", label, p.Name, q.Name, daemon)
				res, err := sp.LeadsToContext(ctx, p, q, daemon)
				if err != nil {
					t.Fatalf("%s: %v", l, err)
				}
				want, reach := o.leadsTo(bits[a], bits[b], daemon)
				if res.Holds != want {
					t.Fatalf("%s: engine Holds=%v, oracle %v", l, res.Holds, want)
				}
				if !res.Holds {
					o.checkLeadsToWitness(t, l, res, reach, daemon)
				}
			}
		}
	}
}

// checkLeadsToWitness validates a leads-to failure: Stuck is a reachable
// state, terminal when there is no cycle; an unfair Cycle is a closed
// path and a fair one a strongly connected set admitting a fair run, in
// the reachable set either way, with Stuck its first state.
func (o *oracle) checkLeadsToWitness(t *testing.T, label string, res *verify.LeadsToResult, reach []bool, fair bool) {
	t.Helper()
	within := func(i int64) bool { return reach[i] }
	if res.Stuck == nil || !within(o.p.Schema.Index(res.Stuck)) {
		t.Fatalf("%s: stuck witness %v not reachable", label, res.Stuck)
	}
	switch {
	case len(res.Cycle) == 0:
		if len(o.succ[o.p.Schema.Index(res.Stuck)]) != 0 {
			t.Fatalf("%s: stuck witness %s is not terminal", label, res.Stuck)
		}
	case res.Cycle[0] != res.Stuck:
		t.Fatalf("%s: stuck witness %s is not the cycle's first state", label, res.Stuck)
	case fair:
		o.checkFairSet(t, label, res.Cycle, within)
	default:
		for k, st := range res.Cycle {
			i, next := o.p.Schema.Index(st), o.p.Schema.Index(res.Cycle[(k+1)%len(res.Cycle)])
			if !within(i) || !slices.Contains(o.succ[i], next) {
				t.Fatalf("%s: cycle step %s -> %s is not a reachable transition", label, st, res.Cycle[(k+1)%len(res.Cycle)])
			}
		}
	}
}

// randomPred returns a predicate holding at a random ~1/den of the states.
func randomPred(rng *rand.Rand, p *program.Program, name string, den int) *program.Predicate {
	count, _ := p.Schema.StateCount()
	in := make([]bool, count)
	for i := range in {
		in[i] = rng.Intn(den) == 0
	}
	return program.NewPredicate(name, nil, func(st *program.State) bool { return in[p.Schema.Index(st)] })
}

// TestFairLeadsToOracle cross-checks the weakly-fair convergence verdict
// and the leads-to verdicts under both daemons against the oracle on
// random transition systems, half of them with a random fault-span T so
// that escapes occur too.
func TestFairLeadsToOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1717))
	ctx := context.Background()
	fairCycles, fairOnly := 0, 0
	for trial := 0; trial < 300; trial++ {
		label := fmt.Sprintf("trial %d", trial)
		p, S := verify.RandomProgram(rng, 2, 2, 2+rng.Intn(2))
		T := program.True()
		if rng.Intn(2) == 0 {
			T = randomPred(rng, p, "T", 2)
			S = program.And("S", S, T)
		}
		sp, err := verify.NewSpaceContext(ctx, p, S, T, verify.Options{Workers: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatalf("%s: NewSpaceContext: %v", label, err)
		}
		o := newOracle(p, S, T)
		compareFairLeadsTo(t, label, o, sp, []*program.Predicate{
			T, S, randomPred(rng, p, "p", 2), randomPred(rng, p, "q", 4)})
		if conv, _, _, _ := o.convergence(); !conv && o.fairConverges() {
			fairOnly++
		}
		if fair := sp.CheckFairConvergence(); len(fair.Cycle) > 0 {
			fairCycles++
		}
	}
	if fairCycles == 0 || fairOnly == 0 {
		t.Errorf("weak sample: %d fair cycles, %d fair-only convergent programs", fairCycles, fairOnly)
	}
}

// TestFairLeadsToOracleOnModels runs the same cross-check on every
// checked-in GCL model, with leads-to over T, S and its constraints.
func TestFairLeadsToOracleOnModels(t *testing.T) {
	ctx := context.Background()
	for name, m := range gclModels(t) {
		t.Run(name, func(t *testing.T) {
			rep, err := verify.Check(ctx, m.Program, m.S, m.T)
			if err != nil {
				t.Fatal(err)
			}
			preds := []*program.Predicate{rep.Space.T, rep.Space.S}
			for _, c := range m.Set.Constraints {
				preds = append(preds, c.Pred)
			}
			compareFairLeadsTo(t, name, newOracle(m.Program, m.S, m.T), rep.Space, preds)
		})
	}
}

// validateConvergenceWitness checks a non-convergence witness against the
// model directly, independent of the decider's internals.
func validateConvergenceWitness(t *testing.T, label string, sp *verify.Space, res *verify.ConvergenceResult) {
	t.Helper()
	switch {
	case res.Deadlock != nil:
		st := res.Deadlock
		if sp.S.Holds(st) || !sp.T.Holds(st) {
			t.Fatalf("%s: deadlock witness %s not in T∧¬S", label, st)
		}
		for _, a := range sp.P.Actions {
			if a.Enabled(st) {
				t.Fatalf("%s: deadlock witness %s has enabled action %s",
					label, st, a.Name)
			}
		}
	case len(res.Cycle) > 0:
		// Every cycle state is in the region and each step of the cycle is
		// one action application.
		for _, st := range res.Cycle {
			if sp.S.Holds(st) || !sp.T.Holds(st) {
				t.Fatalf("%s: cycle state %s not in T∧¬S", label, st)
			}
		}
		for i, st := range res.Cycle {
			next := res.Cycle[(i+1)%len(res.Cycle)]
			if !someActionLeads(sp, st, next) {
				t.Fatalf("%s: no action leads %s -> %s in claimed cycle",
					label, st, next)
			}
		}
	case res.Escape != nil:
		if !sp.T.Holds(res.Escape.State) {
			t.Fatalf("%s: escape source %s outside T", label, res.Escape.State)
		}
		if sp.T.Holds(res.Escape.Next) {
			t.Fatalf("%s: escape target %s still in T", label, res.Escape.Next)
		}
	default:
		t.Fatalf("%s: non-convergence without witness", label)
	}
}

func someActionLeads(sp *verify.Space, from, to *program.State) bool {
	want := sp.P.Schema.Index(to)
	for _, a := range sp.P.Actions {
		if a.Enabled(from) && sp.P.Schema.Index(a.Apply(from)) == want {
			return true
		}
	}
	return false
}
