package verify

import (
	"context"
	"fmt"
	"strings"

	"nonmask/internal/program"
)

// The tolerance-metrics engine (DESIGN §10). The paper's verdict is
// boolean — the triple is fault-tolerant or it is not — but a nonmasking
// design is most useful quantified: how far can faults push the system
// from the invariant, and how long does recovery take? The passes in this
// file turn the already-enumerated state space and its CSR transition
// graph into three such numbers:
//
//	distance profile:   min-steps-to-S histogram over the fault span T
//	                    (BFS from S over the reverse CSR);
//	stabilization time: exact worst case under the arbitrary daemon (the
//	                    WorstDistances variant table, surfaced) and the
//	                    expected case under the uniform-random daemon (a
//	                    Jacobi value iteration over the hitting-time
//	                    equations);
//	constraint costs:   for each conjunct of the invariant, the worst-case
//	                    number of steps until it holds and stays held.
//
// All three are deterministic: identical for every worker count and on
// every space tier. Integer aggregates make that trivial; the
// floating-point ones fix the summation order (per-state sums in action
// order, per-chunk partials folded in chunk order).

// ConstraintSpec names one conjunct of the invariant for the
// per-constraint recovery-cost pass. Registry protocols derive specs from
// their Design's constraint set (registry.ConstraintSpecs); GCL modules
// from the module's `constraint` clauses.
type ConstraintSpec struct {
	// Name labels the constraint in reports (e.g. "C1: x.0 = x.1").
	Name string
	// Pred is the constraint predicate.
	Pred *program.Predicate
}

// ConstraintCost is one constraint's recovery cost: the worst-case number
// of steps, from anywhere in the fault span, until the constraint holds
// and keeps holding ("holds and stays held" — reaching a state where the
// constraint merely holds is no use if the next step can violate it
// again, so the target is the constraint's stable subset).
type ConstraintCost struct {
	// Name is the constraint's label.
	Name string
	// Measured reports whether the cost exists: every daemon, from every
	// T state, is forced into the stable subset. False when some schedule
	// avoids it forever (cycle or deadlock outside the stable set).
	Measured bool
	// WorstSteps is the exact worst-case step count (valid when Measured).
	WorstSteps int
	// StableStates counts the T states where the constraint holds and,
	// under any daemon, keeps holding.
	StableStates int64
}

// ToleranceMetrics is the result of the quantitative analyses over one
// enumerated space. The boolean convergence verdict is deliberately not
// repeated here; each group carries its own validity flag because the
// numbers exist under different conditions (a program can fail
// arbitrary-daemon convergence and still have finite expected
// stabilization time under the uniform-random daemon).
type ToleranceMetrics struct {
	// Profile is the distance-to-invariant histogram over T: Profile[d]
	// counts the T states whose shortest path to S has d steps
	// (Profile[0] = |S|). States that cannot reach S at all are excluded
	// and counted in UnreachableStates.
	Profile []int64
	// MaxDistance is the largest d with Profile[d] > 0.
	MaxDistance int
	// MeanDistance is the mean shortest distance over the reachable T
	// states (S states included at distance 0).
	MeanDistance float64
	// UnreachableStates counts T states with no path to S.
	UnreachableStates int64

	// WorstMeasured reports whether the worst-case stabilization time
	// exists (arbitrary-daemon convergence holds).
	WorstMeasured bool
	// WorstSteps is the exact worst-case stabilization time: the maximum
	// over T∧¬S states of the longest action sequence any daemon can
	// stretch before S holds.
	WorstSteps int
	// MeanWorstSteps is the mean of that per-state worst case.
	MeanWorstSteps float64

	// ExpectedMeasured reports whether the expected stabilization time
	// exists and the value iteration settled: every T state reaches S
	// with probability 1 under the uniform-random daemon.
	ExpectedMeasured bool
	// ExpectedSteps is the maximum over T∧¬S states of the expected
	// number of steps to reach S when the daemon picks uniformly among
	// enabled actions.
	ExpectedSteps float64
	// MeanExpectedSteps is the mean of that per-state expectation.
	MeanExpectedSteps float64
	// ExpectedIterations is the number of Jacobi sweeps the value
	// iteration ran before the residual dropped below expectedTol.
	ExpectedIterations int

	// Constraints is the per-constraint recovery-cost breakdown, in spec
	// order. Empty when the caller supplied no constraint specs.
	Constraints []ConstraintCost
}

// Summary renders the metrics as human-readable prose, one line per
// analysis group, matching the vocabulary of ConvergenceResult.Summary.
func (m *ToleranceMetrics) Summary() string {
	var b strings.Builder
	reach := int64(0)
	for _, c := range m.Profile {
		reach += c
	}
	fmt.Fprintf(&b, "distance profile: max %d, mean %.2f over %d reachable T states",
		m.MaxDistance, m.MeanDistance, reach)
	if m.UnreachableStates > 0 {
		fmt.Fprintf(&b, " (%d unreachable)", m.UnreachableStates)
	}
	b.WriteString("\n  histogram:")
	for d, c := range m.Profile {
		fmt.Fprintf(&b, " %d:%d", d, c)
	}
	b.WriteString("\n")
	if m.WorstMeasured {
		fmt.Fprintf(&b, "worst-case stabilization: %d steps (mean %.2f)\n",
			m.WorstSteps, m.MeanWorstSteps)
	} else {
		b.WriteString("worst-case stabilization: unbounded (no arbitrary-daemon convergence)\n")
	}
	if m.ExpectedMeasured {
		fmt.Fprintf(&b, "expected stabilization (uniform-random daemon): %.2f steps (mean %.2f, %d iterations)\n",
			m.ExpectedSteps, m.MeanExpectedSteps, m.ExpectedIterations)
	} else {
		b.WriteString("expected stabilization (uniform-random daemon): undefined for some T state\n")
	}
	for _, c := range m.Constraints {
		if c.Measured {
			fmt.Fprintf(&b, "constraint %q: worst %d steps to hold-and-stay-held (%d stable states)\n",
				c.Name, c.WorstSteps, c.StableStates)
		} else {
			fmt.Fprintf(&b, "constraint %q: recovery unbounded (%d stable states)\n",
				c.Name, c.StableStates)
		}
	}
	return b.String()
}

// expectedTol is the absolute residual at which the hitting-time value
// iteration is considered settled. On acyclic regions the iteration
// reaches an exact fixpoint (residual 0) after depth sweeps; the
// tolerance only matters on cyclic regions, where the error decays
// geometrically.
const expectedTol = 1e-9

// expectedIterCap bounds the value iteration. Hitting the cap means some
// state's expectation diverges (or converges too slowly to trust);
// ExpectedMeasured is then false.
const expectedIterCap = 100_000

// MetricsContext runs the quantitative tolerance analyses over the space:
// the distance-to-invariant profile, worst-case and expected stabilization
// times, and — for each supplied constraint spec — the recovery cost until
// the constraint holds and stays held. Check runs it when WithMetrics is
// given; callers holding a Report can also invoke it directly on
// Report.Space (passes keep recording into the report's collector).
//
// Every number is identical for every worker count and on every space
// tier.
func (sp *Space) MetricsContext(ctx context.Context, constraints []ConstraintSpec) (*ToleranceMetrics, error) {
	m := &ToleranceMetrics{}
	dist, err := sp.distanceProfile(ctx, m)
	if err != nil {
		return nil, err
	}
	if err := sp.worstMetrics(ctx, m); err != nil {
		return nil, err
	}
	if err := sp.expectedSteps(ctx, dist, m); err != nil {
		return nil, err
	}
	for _, spec := range constraints {
		cost, err := sp.constraintCost(ctx, spec)
		if err != nil {
			return nil, err
		}
		m.Constraints = append(m.Constraints, cost)
	}
	return m, nil
}

// DistancesContext returns the shortest-path distance-to-S table the
// metrics distance profile is built from: for every state index, the
// length of the shortest program computation reaching S (0 for S states,
// -1 for states outside T or unable to reach S at all). Simulators use it
// as the exact distance observable, so sampled numbers (cssim,
// sim.Availability) are directly comparable with MetricsContext's
// distance profile.
func (sp *Space) DistancesContext(ctx context.Context) ([]int32, error) {
	var scratch ToleranceMetrics
	return sp.distanceProfile(ctx, &scratch)
}

// distanceProfile computes, for every T state, the length of the shortest
// action path to S (0 for S states, -1 when S is unreachable), and folds
// the per-distance counts into m. It is a level-synchronized multi-source
// BFS from S over the reverse CSR. visited claims region states
// atomically, so a state reached through several edges of the same level
// lands in exactly one worker's spool (and batching a level is safe —
// expansion never reads dist). On the spill tier levels overflow to
// sorted temp-file runs.
func (sp *Space) distanceProfile(ctx context.Context, m *ToleranceMetrics) ([]int32, error) {
	span := startPass(sp.opts, PassDistanceProfile, 0)
	workers := sp.workers()
	dist := make([]int32, sp.Count)
	for i := range dist {
		dist[i] = -1
	}
	revOff, revPred, err := sp.predIndex(ctx)
	if err != nil {
		return nil, err
	}

	// Distance 0: the invariant itself (S ⊆ T by space construction).
	cur := newFrontierSpool(sp.arena, workers)
	defer func() { cur.release() }()
	err = parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(worker int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			if sp.inS.get(i) {
				dist[i] = 0
				cur.add(worker, i)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	m.Profile = append(m.Profile, sp.CountS())

	visited := newBitset(sp.Count)
	for level := int32(1); cur.size() > 0; level++ {
		span.observeFrontier(cur.size())
		next := newFrontierSpool(sp.arena, workers)
		weights := make([]int64, workers)
		err := cur.drain(func(batch []int64) error {
			return parallelRange(ctx, workers, int64(len(batch)), sp.opts.Progress, func(worker int, lo, hi int64) {
				var lw int64
				for w := lo; w < hi; w++ {
					j := batch[w]
					for _, p := range revPred[revOff[j]:revOff[j+1]] {
						pp := int64(p)
						if !sp.region(pp) || !visited.testAndSet(pp) {
							continue
						}
						dist[pp] = level
						next.add(worker, pp)
						lw += sp.weightOf(pp)
					}
				}
				weights[worker] += lw
			})
		})
		cur = next
		if err != nil {
			return nil, err
		}
		if cur.size() > 0 {
			var lw int64
			for _, w := range weights {
				lw += w
			}
			m.Profile = append(m.Profile, lw)
		}
	}

	m.MaxDistance = len(m.Profile) - 1
	var reach, weighted int64
	for d, n := range m.Profile {
		reach += n
		weighted += int64(d) * n
	}
	m.UnreachableStates = sp.CountT() - reach
	if reach > 0 {
		m.MeanDistance = float64(weighted) / float64(reach)
	}
	span.end(sp.Count)
	return dist, nil
}

// worstMetrics surfaces the exact worst-case stabilization time from the
// WorstDistances variant table (cached on the space, so a Check that
// already ran the convergence fixpoint does not pay it twice for the
// max/mean fold).
func (sp *Space) worstMetrics(ctx context.Context, m *ToleranceMetrics) error {
	steps, ok, err := sp.WorstDistancesContext(ctx)
	if err != nil || !ok {
		return err
	}
	m.WorstMeasured = true
	var worst int32
	var sum, n int64
	for i := int64(0); i < sp.Count; i++ {
		if !sp.region(i) {
			continue
		}
		if steps[i] > worst {
			worst = steps[i]
		}
		sum += sp.weightOf(i) * int64(steps[i])
		n += sp.weightOf(i)
	}
	m.WorstSteps = int(worst)
	if n > 0 {
		m.MeanWorstSteps = float64(sum) / float64(n)
	}
	return nil
}

// expectedSteps solves the expected-hitting-time equations for the
// uniform-random daemon by Jacobi value iteration:
//
//	E[i] = 0                                  for i ∈ S
//	E[i] = 1 + (Σ over successors j E[j]) / deg(i)   for i ∈ T∧¬S
//
// The expectation is finite exactly for the states that cannot reach a
// state from which S is unreachable (with every action carrying positive
// probability, "S reachable from everywhere reachable" forces almost-sure
// absorption). Those certain states form the measured set; if any region
// state falls outside it — or the iteration hits its cap — the metric is
// reported unmeasured.
//
// Determinism: each state's successor sum runs in action order on a
// single worker, sweeps are synchronous (new values never feed the sweep
// that computes them), the residual is an order-independent max, and the
// mean folds per-chunk partial sums in chunk order — so the result is
// bit-identical for every worker count and on every space tier.
func (sp *Space) expectedSteps(ctx context.Context, dist []int32, m *ToleranceMetrics) error {
	region := countAndNot(sp.inT, sp.inS)
	if region == 0 {
		m.ExpectedMeasured = true
		return nil
	}
	span := startPass(sp.opts, PassExpectedSteps, 0)
	workers := sp.workers()

	// doomed: states whose expectation is infinite — the backward closure
	// (within T) of the states that cannot reach S or step outside T.
	doomed, err := sp.doomedStates(ctx, dist)
	if err != nil {
		return err
	}
	measured := func(i int64) bool { return sp.region(i) && !doomed.get(i) }
	var nMeasured int64
	for i := int64(0); i < sp.Count; i++ {
		if measured(i) {
			nMeasured += sp.weightOf(i)
		}
	}
	if nMeasured == 0 {
		span.end(sp.Count)
		return nil
	}

	cur := make([]float64, sp.Count)
	next := make([]float64, sp.Count)
	nChunks := (sp.Count + chunkStates - 1) / chunkStates
	resid := make([]float64, nChunks)
	iters := 0
	for iters < expectedIterCap {
		iters++
		err := parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
			var worstDelta float64
			for i := lo; i < hi; i++ {
				if !measured(i) {
					continue
				}
				var sum float64
				row := sp.idx.out(i)
				for _, j := range row {
					if !sp.inS.get(int64(j)) {
						sum += cur[j]
					}
				}
				v := 1 + sum/float64(len(row))
				next[i] = v
				if d := v - cur[i]; d > worstDelta {
					worstDelta = d
				} else if -d > worstDelta {
					worstDelta = -d
				}
			}
			if worstDelta > resid[lo/chunkStates] {
				resid[lo/chunkStates] = worstDelta
			}
		})
		if err != nil {
			return err
		}
		cur, next = next, cur
		var residual float64
		for c, r := range resid {
			if r > residual {
				residual = r
			}
			resid[c] = 0
		}
		if residual <= expectedTol {
			m.ExpectedMeasured = doomed.count() == 0
			break
		}
	}
	m.ExpectedIterations = iters

	// Aggregate: max is order-independent; the mean folds per-chunk sums
	// sequentially so float addition order is fixed. The per-state terms
	// are orbit-weighted (weight 1 multiplies exactly, so full-mode sums
	// are bit-identical to the unweighted fold).
	sums := make([]float64, nChunks)
	maxes := make([]float64, nChunks)
	err = parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
		var s, mx float64
		for i := lo; i < hi; i++ {
			if !measured(i) {
				continue
			}
			s += float64(sp.weightOf(i)) * cur[i]
			if cur[i] > mx {
				mx = cur[i]
			}
		}
		sums[lo/chunkStates] = s
		maxes[lo/chunkStates] = mx
	})
	if err != nil {
		return err
	}
	var total, worst float64
	for c := range sums {
		total += sums[c]
		if maxes[c] > worst {
			worst = maxes[c]
		}
	}
	m.ExpectedSteps = worst
	m.MeanExpectedSteps = total / float64(nMeasured)
	span.end(sp.Count)
	return nil
}

// doomedStates returns the T states from which the uniform-random daemon
// can (with positive probability) get stuck: the backward closure, within
// T, of the states that cannot reach S at all (dist < 0) plus the states
// with an escaping edge. dist is the distanceProfile table.
func (sp *Space) doomedStates(ctx context.Context, dist []int32) (bitset, error) {
	workers := sp.workers()
	doomed := newBitset(sp.Count)

	// Seeds: unreachable region states, and region states with a successor
	// outside T (an escape counts as never recovering within the span).
	seedLists := make([][]int64, workers)
	err := parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(worker int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			if !sp.region(i) {
				continue
			}
			bad := dist[i] < 0
			if !bad {
				row := sp.idx.out(i)
				if len(row) == 0 {
					bad = true
				}
				for _, j := range row {
					if !sp.inT.get(int64(j)) {
						bad = true
						break
					}
				}
			}
			if bad && doomed.testAndSet(i) {
				seedLists[worker] = append(seedLists[worker], i)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	frontier := flatten(seedLists)
	if len(frontier) == 0 {
		return doomed, nil
	}

	revOff, revPred, err := sp.predIndex(ctx)
	if err != nil {
		return nil, err
	}
	for len(frontier) > 0 {
		next := make([][]int64, workers)
		err := parallelRange(ctx, workers, int64(len(frontier)), sp.opts.Progress, func(worker int, lo, hi int64) {
			for w := lo; w < hi; w++ {
				j := frontier[w]
				for _, p := range revPred[revOff[j]:revOff[j+1]] {
					pp := int64(p)
					if sp.region(pp) && doomed.testAndSet(pp) {
						next[worker] = append(next[worker], pp)
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		frontier = flatten(next)
	}
	return doomed, nil
}

// constraintCost measures how long faults can keep one invariant conjunct
// broken: the worst-case number of steps, from anywhere in T, until the
// constraint holds *and stays held*. The target is the constraint's
// stable subset — the largest subset of (constraint ∧ T) no action ever
// leaves — computed by removing, to a fixpoint, every state with an edge
// out of the candidate set; the cost is then the worst-case distance to
// that subset, by the same wave peeling the convergence verdict uses.
func (sp *Space) constraintCost(ctx context.Context, spec ConstraintSpec) (ConstraintCost, error) {
	cost := ConstraintCost{Name: spec.Name}
	span := startPass(sp.opts, PassConstraintCost, 0)
	g, err := sp.evalPred(ctx, spec.Pred)
	if err != nil {
		return cost, err
	}
	// Candidate set: constraint ∧ T, as a fresh bitset (evalPred may have
	// returned a shared full bitset for constant-true predicates).
	good := newBitset(sp.Count)
	for w := range good {
		good[w] = g[w] & sp.inT[w]
	}
	stable, err := sp.stableSubset(ctx, good)
	if err != nil {
		return cost, err
	}
	cost.StableStates = sp.weightedCount(stable)

	// Worst-case distance to the stable subset: re-target the convergence
	// peel at S' = stable over the same transition graph. A stalled peel
	// (cycle or deadlock avoiding the subset) means no finite cost exists.
	name := fmt.Sprintf("stable(%s)", spec.Name)
	pred := program.NewPredicate(name, nil, func(st *program.State) bool {
		return stable.get(sp.indexOf(st))
	})
	res, _, err := sp.derived(pred, sp.T, stable, sp.inT).checkConvergenceKahn(ctx)
	if err != nil {
		return cost, err
	}
	if res.Converges {
		cost.Measured = true
		cost.WorstSteps = res.WorstSteps
	}
	span.end(sp.Count)
	return cost, nil
}

// stableSubset shrinks the candidate set to its largest closed subset:
// repeatedly remove every member with an edge leaving the current set
// (including edges out of T). What survives is exactly the set of states
// from which the candidate predicate keeps holding under every daemon.
// The removal runs backward over the reverse CSR: each removed state
// releases its predecessors.
func (sp *Space) stableSubset(ctx context.Context, good bitset) (bitset, error) {
	workers := sp.workers()
	removed := newBitset(sp.Count)

	// Seed: members with an edge out of the candidate set.
	seedLists := make([][]int64, workers)
	err := parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(worker int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			if !good.get(i) {
				continue
			}
			for _, j := range sp.idx.out(i) {
				if !good.get(int64(j)) {
					if removed.testAndSet(i) {
						seedLists[worker] = append(seedLists[worker], i)
					}
					break
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	frontier := flatten(seedLists)

	revOff, revPred, err := sp.predIndex(ctx)
	if err != nil {
		return nil, err
	}
	for len(frontier) > 0 {
		next := make([][]int64, workers)
		err := parallelRange(ctx, workers, int64(len(frontier)), sp.opts.Progress, func(worker int, lo, hi int64) {
			for w := lo; w < hi; w++ {
				j := frontier[w]
				for _, p := range revPred[revOff[j]:revOff[j+1]] {
					pp := int64(p)
					if good.get(pp) && removed.testAndSet(pp) {
						next[worker] = append(next[worker], pp)
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
		frontier = flatten(next)
	}

	stable := newBitset(sp.Count)
	for w := range stable {
		stable[w] = good[w] &^ removed[w]
	}
	return stable, nil
}
