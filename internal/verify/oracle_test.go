// An independent reference for the engine's arbitrary-daemon convergence
// fixpoint and its distance profile. The oracle builds explicit adjacency
// from the schema's reference codec (StateAt, Apply, Index) and shares
// nothing with the engine — no Space, codec, CSR, bitsets or workers — so
// a bug in enumeration, the CSR fill or the Kahn peel cannot hide by
// being shared with its own check.
package verify_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nonmask/internal/program"
	"nonmask/internal/verify"
)

// oracle is the explicit transition graph of one program with S and T
// evaluated at every full-product state.
type oracle struct {
	succ     [][]int64
	inS, inT []bool
}

func newOracle(p *program.Program, S, T *program.Predicate) *oracle {
	count, _ := p.Schema.StateCount()
	o := &oracle{succ: make([][]int64, count), inS: make([]bool, count), inT: make([]bool, count)}
	for i := int64(0); i < count; i++ {
		st := p.Schema.StateAt(i)
		o.inS[i], o.inT[i] = S.Holds(st), T.Holds(st)
		for _, a := range p.Actions {
			if a.Guard(st) {
				o.succ[i] = append(o.succ[i], p.Schema.Index(a.Apply(st)))
			}
		}
	}
	return o
}

func (o *oracle) region(i int64) bool { return o.inT[i] && !o.inS[i] }

// convergence decides arbitrary-daemon convergence by DFS over the region
// T∧¬S: it fails on a region deadlock, an edge leaving T, or a region
// cycle. Otherwise it returns the worst-case number of steps to S, as
// the maximum and the mean over the region, computed in DFS postorder.
func (o *oracle) convergence() (converges bool, worst int, mean float64) {
	const (
		white = iota
		gray
		black
	)
	color := make([]uint8, len(o.succ))
	steps := make([]int, len(o.succ))
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
			return false, 0, 0
		}
		worst = max(worst, steps[i])
		sum += int64(steps[i])
		n++
	}
	if n > 0 {
		mean = float64(sum) / float64(n)
	}
	return true, worst, mean
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

// compareOracle checks an engine convergence result and distance profile
// against the oracle, returning whether the engine reported convergence.
func compareOracle(t *testing.T, label string, o *oracle, res *verify.ConvergenceResult, profile []int64) bool {
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
	converges, worst, mean := o.convergence()
	if res.Converges != converges {
		t.Fatalf("%s: engine Converges=%v, oracle %v", label, res.Converges, converges)
	}
	if converges && (res.WorstSteps != worst || res.MeanSteps != mean) {
		t.Fatalf("%s: engine worst %d mean %v, oracle worst %d mean %v",
			label, res.WorstSteps, res.MeanSteps, worst, mean)
	}
	if want := o.profile(); !reflect.DeepEqual(profile, want) {
		t.Fatalf("%s: engine profile %v, oracle %v", label, profile, want)
	}
	return converges
}

// TestKahnAgreesWithDFS cross-checks the engine's Kahn fixpoint and its
// distance-profile BFS against the oracle on random transition systems,
// and validates every non-convergence witness against the model.
func TestKahnAgreesWithDFS(t *testing.T) {
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
		kahn, err := sp.CheckConvergenceContext(ctx)
		if err != nil {
			t.Fatalf("%s: kahn: %v", label, err)
		}
		m, err := sp.MetricsContext(ctx, nil)
		if err != nil {
			t.Fatalf("%s: metrics: %v", label, err)
		}
		if compareOracle(t, label, newOracle(p, S, program.True()), kahn, m.Profile) {
			convergent++
			continue
		}
		divergent++
		validateConvergenceWitness(t, label, sp, kahn)
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
			if !compareOracle(t, name, newOracle(m.Program, m.S, m.T), rep.Unfair, rep.Metrics.Profile) {
				validateConvergenceWitness(t, name, rep.Space, rep.Unfair)
			}
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
