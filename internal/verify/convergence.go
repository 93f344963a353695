package verify

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"nonmask/internal/program"
)

// ConvergenceResult reports whether every computation from T reaches S, and
// if not, why. When convergence holds under the arbitrary daemon, the
// result carries exact worst-case step counts (the paper's variant-function
// bound, computed rather than exhibited by hand — Section 8 discusses how
// the method "simplifies the problem of exhibiting variant functions").
type ConvergenceResult struct {
	// Converges reports whether every computation starting in T reaches S.
	Converges bool
	// Fair reports which daemon the verdict is for: true for the weakly
	// fair daemon of the paper's computation model, false for the arbitrary
	// (unfair) daemon of the Section 8 remark.
	Fair bool

	// Deadlock, when non-nil, is a T∧¬S state with no enabled action —
	// a finite maximal computation that never reaches S.
	Deadlock *program.State
	// Cycle, when non-empty, is a set of T∧¬S states among which a
	// computation (fair, if Fair) can circulate forever.
	Cycle []*program.State
	// Escape, when non-nil, reports a T∧¬S state from which some action
	// leads outside T — a closure failure surfacing during convergence
	// exploration.
	Escape *ClosureViolation

	// WorstSteps is the maximum, over T∧¬S states, of the longest
	// action sequence a daemon can stretch before S holds. Valid only when
	// Converges under the arbitrary daemon (Fair == false).
	WorstSteps int
	// MeanSteps is the mean of that per-state worst case over all T∧¬S
	// states, or 0 when there are none.
	MeanSteps float64
	// StatesT and StatesS count the states satisfying T and S.
	StatesT, StatesS int64
	// StatesOutsideS counts T∧¬S states (the convergence region).
	StatesOutsideS int64
}

// Summary renders a one-line verdict.
func (r *ConvergenceResult) Summary() string {
	daemon := "arbitrary daemon"
	if r.Fair {
		daemon = "weakly fair daemon"
	}
	if !r.Converges {
		why := "livelock"
		switch {
		case r.Deadlock != nil:
			why = fmt.Sprintf("deadlock at %s", r.Deadlock)
		case r.Escape != nil:
			why = r.Escape.Error()
		case len(r.Cycle) > 0:
			why = fmt.Sprintf("cycle through %d states, e.g. %s", len(r.Cycle), r.Cycle[0])
		}
		return fmt.Sprintf("does NOT converge under %s: %s", daemon, why)
	}
	if r.Fair {
		return fmt.Sprintf("converges under %s (|T∧¬S| = %d states)", daemon, r.StatesOutsideS)
	}
	return fmt.Sprintf("converges under %s: worst %d steps, mean %.2f (|T∧¬S| = %d states)",
		daemon, r.WorstSteps, r.MeanSteps, r.StatesOutsideS)
}

// stateColors for cycleWitness's DFS.
const (
	colorWhite uint8 = iota
	colorGray
	colorBlack
)

// CheckConvergence decides convergence from T to S under the arbitrary
// (unfair) central daemon: it holds iff the transition graph restricted to
// T∧¬S has no cycles and no terminal states, and no transition escapes T.
// This is the strongest form — it implies convergence under every daemon.
func (sp *Space) CheckConvergence() *ConvergenceResult {
	res, _ := sp.CheckConvergenceContext(context.Background())
	return res
}

// CheckConvergenceContext is CheckConvergence with cancellation: the
// sharded backward fixpoint of checkConvergenceKahn. Verdicts and
// witnesses do not depend on the worker count.
func (sp *Space) CheckConvergenceContext(ctx context.Context) (*ConvergenceResult, error) {
	res, _, err := sp.checkConvergenceKahn(ctx)
	return res, err
}

// checkConvergenceKahn decides arbitrary-daemon convergence by peeling the
// region T∧¬S backwards from S in waves (Kahn's algorithm on the reversed
// region graph):
//
//	wave 0:  region states all of whose region successors... none — i.e.
//	         states whose every successor already satisfies S;
//	wave k:  states whose region successors all resolved in waves < k.
//
// Each wave computes exact worst-case step counts
// (steps[i] = max over enabled actions of 1 if succ∈S else steps[succ]+1)
// because every region successor is resolved in a strictly earlier wave;
// the barrier between waves provides the happens-before for those reads.
// Predecessor release uses an atomic decrement, whose transition to zero
// gives a unique owner the right to schedule the state, so waves are
// duplicate-free. If the peeling stalls with unresolved states, those
// states all lie on or reach region cycles; a sequential DFS over them
// extracts a concrete cycle witness.
//
// The returned steps table (valid only when res.Converges) is the exact
// variant function of the paper's Section 8: it strictly decreases on every
// convergence step under the worst daemon.
func (sp *Space) checkConvergenceKahn(ctx context.Context) (res *ConvergenceResult, _ []int32, err error) {
	// Total 0: the wave fixpoint processes work items, not states, so the
	// space size is not a meaningful progress bound.
	span := startPass(sp.opts, PassConvergeUnfair, 0)
	defer func() {
		if err == nil {
			span.end(sp.Count)
		}
	}()
	res = &ConvergenceResult{Converges: true, StatesT: sp.CountT(), StatesS: sp.CountS()}
	res.StatesOutsideS = sp.weightedCountAndNot(sp.inT, sp.inS)
	steps := make([]int32, sp.Count)
	if res.StatesOutsideS == 0 {
		return res, steps, nil
	}
	workers := sp.workers()

	// Phase 1: scan the region. outstanding[i] counts i's region
	// successors; escapes and deadlocks surface here with minimum-index
	// witnesses (the escape payload is an edge rank, see actionAt). States
	// with no region successors seed the first wave.
	outstanding := make([]int32, sp.Count)
	escape, deadlock := newWitness(), newWitness()
	cur := newFrontierSpool(sp.arena, workers)
	defer cur.release()
	err = parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(worker int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			if !sp.region(i) {
				continue
			}
			row := sp.idx.out(i)
			if len(row) == 0 {
				deadlock.offer(i, 0)
				continue
			}
			pending := int32(0)
			for k, j := range row {
				jj := int64(j)
				if !sp.inT.get(jj) {
					escape.offer(i, int64(k))
				} else if !sp.inS.get(jj) {
					pending++
				}
			}
			outstanding[i] = pending
			if pending == 0 {
				cur.add(worker, i)
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if sp.exitWitness(res, escape, deadlock) {
		return res, nil, nil
	}

	// Phase 2: the shared reverse CSR — built once per Check by the
	// atomics-free counting-sort builder in graph.go and cached on the
	// space's succIndex, so repeat convergence passes (stair stages,
	// leads-to's embedded analysis) reuse it. The global index keeps one
	// predecessor entry per forward edge; restricting releases to region
	// predecessors below makes multiplicities match outstanding exactly.
	revOff, revPred, err := sp.predIndex(ctx)
	if err != nil {
		return nil, nil, err
	}

	// Phase 3: the waves. Each newly released predecessor joins the next
	// wave; processing a wave in sorted spill batches is sound because no
	// wave member reads a same-wave steps entry — all its region
	// successors resolved in strictly earlier waves.
	resolved, err := waves(ctx, sp.opts.Progress, &span, cur, func(worker int, _ int32, batch []int64, next *frontierSpool) {
		for _, i := range batch {
			var best int32
			for _, j := range sp.idx.out(i) {
				jj := int64(j)
				if sp.inS.get(jj) {
					if best < 1 {
						best = 1
					}
				} else if d := steps[jj] + 1; d > best {
					best = d
				}
			}
			steps[i] = best
			for _, p := range revPred[revOff[i]:revOff[i+1]] {
				pp := int64(p)
				if !sp.region(pp) {
					continue
				}
				if atomic.AddInt32(&outstanding[pp], -1) == 0 {
					next.add(worker, pp)
				}
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	// The peel counts representatives; compare against the region's rep
	// count, not the orbit-weighted StatesOutsideS.
	if resolved != countAndNot(sp.inT, sp.inS) {
		// The peeling stalled: every unresolved region state still has an
		// unresolved region successor, so the unresolved set contains a
		// cycle an unfair daemon can circulate in forever.
		res.Converges = false
		res.Cycle = sp.cycleWitness(outstanding)
		return res, nil, nil
	}

	if res.WorstSteps, res.MeanSteps, err = sp.worstStats(ctx, steps); err != nil {
		return nil, nil, err
	}
	return res, steps, nil
}

// worstStats folds a worst-case steps table into its maximum and its
// mean over the region. The per-state sum is integer and orbit-weighted,
// so the mean is identical for every worker count and equals the full
// space's mean exactly in quotient mode.
func (sp *Space) worstStats(ctx context.Context, steps []int32) (worst int, mean float64, err error) {
	var (
		mu  sync.Mutex
		top int32
		sum int64
	)
	err = parallelRange(ctx, sp.workers(), sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
		var w int32
		var s int64
		for i := lo; i < hi; i++ {
			if !sp.region(i) {
				continue
			}
			if d := steps[i]; d > w {
				w = d
			}
			s += sp.weightOf(i) * int64(steps[i])
		}
		mu.Lock()
		if w > top {
			top = w
		}
		sum += s
		mu.Unlock()
	})
	if n := sp.weightedCountAndNot(sp.inT, sp.inS); n > 0 {
		mean = float64(sum) / float64(n)
	}
	return int(top), mean, err
}

// exitWitness turns the minimum-index escape and deadlock witnesses of a
// region scan into the verdict, an escape taking precedence; it reports
// whether either was found. The escape payload is the escaping edge's
// rank among the state's enabled actions.
func (sp *Space) exitWitness(res *ConvergenceResult, escape, deadlock *witness) bool {
	switch {
	case escape.found():
		st := sp.State(escape.state)
		a := sp.actionAt(escape.state, escape.extra)
		res.Escape = &ClosureViolation{Pred: sp.T, State: st, Action: a, Next: a.Apply(st)}
	case deadlock.found():
		res.Deadlock = sp.State(deadlock.state)
	default:
		return false
	}
	res.Converges = false
	return true
}

// cycleWitness extracts a concrete region cycle from the unresolved
// residue of a stalled peeling (states with outstanding > 0). Every such
// state has at least one unresolved region successor, so a DFS restricted
// to the residue must close a cycle; the DFS stack at the moment the back
// edge appears is the cycle, in forward order.
func (sp *Space) cycleWitness(outstanding []int32) []*program.State {
	unresolved := func(i int64) bool { return sp.region(i) && outstanding[i] > 0 }
	color := make([]uint8, sp.Count)
	type frame struct {
		i   int64
		pos int
	}
	var stack []frame
	for start := int64(0); start < sp.Count; start++ {
		if !unresolved(start) || color[start] != colorWhite {
			continue
		}
		color[start] = colorGray
		stack = append(stack[:0], frame{i: start})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			row := sp.idx.out(f.i)
			pushed := false
			for f.pos < len(row) {
				j := row[f.pos]
				f.pos++
				if !unresolved(int64(j)) {
					continue
				}
				jj := int64(j)
				if color[jj] == colorGray {
					// Back edge: the stack suffix from jj is the cycle.
					k := len(stack) - 1
					for k >= 0 && stack[k].i != jj {
						k--
					}
					cyc := make([]*program.State, 0, len(stack)-k)
					for ; k < len(stack); k++ {
						cyc = append(cyc, sp.State(stack[k].i))
					}
					return cyc
				}
				if color[jj] == colorWhite {
					color[jj] = colorGray
					stack = append(stack, frame{i: jj})
					pushed = true
					break
				}
			}
			if pushed {
				continue
			}
			color[f.i] = colorBlack
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// CheckFairConvergence decides convergence from T to S under the weakly
// fair daemon of the paper's computation model (Section 2: "each action in
// the set that is continuously enabled along the sequence is eventually
// executed").
//
// An infinite computation confined to T∧¬S eventually stays within one
// strongly connected component C of the T∧¬S transition graph. Such a
// confined computation can be weakly fair iff every action enabled at all
// states of C has some transition that stays inside C; otherwise that
// action is continuously enabled but firing it leaves C, so no fair
// computation remains in C. Convergence therefore fails iff some T∧¬S
// state is terminal, some transition escapes T, or some SCC admits a fair
// cycle by this criterion.
func (sp *Space) CheckFairConvergence() *ConvergenceResult {
	res, _ := sp.CheckFairConvergenceContext(context.Background())
	return res
}

// CheckFairConvergenceContext is CheckFairConvergence with cancellation.
// It runs on the space's CSR alone: a sharded region scan finds escapes
// and deadlocks, then a sequential Tarjan pass over the region finds the
// components, and only components that can hold a computation at all
// (more than one state, or a self-loop) decode their states to recover
// the action labels the A∞ test needs. The first fair component found
// is the Cycle witness; verdicts and witnesses do not depend on the
// worker count.
func (sp *Space) CheckFairConvergenceContext(ctx context.Context) (res *ConvergenceResult, err error) {
	span := startPass(sp.opts, PassConvergeFair, 0)
	defer func() {
		if err == nil {
			span.end(sp.Count)
		}
	}()
	res = &ConvergenceResult{Converges: true, Fair: true, StatesT: sp.CountT(), StatesS: sp.CountS()}
	res.StatesOutsideS = sp.weightedCountAndNot(sp.inT, sp.inS)
	if res.StatesOutsideS == 0 {
		return res, nil
	}

	// Escapes and deadlocks first, with the arbitrary-daemon scan's
	// minimum-index witnesses.
	escape, deadlock := newWitness(), newWitness()
	err = parallelRange(ctx, sp.workers(), sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			if !sp.region(i) {
				continue
			}
			row := sp.idx.out(i)
			if len(row) == 0 {
				deadlock.offer(i, 0)
			}
			for k, j := range row {
				if !sp.inT.get(int64(j)) {
					escape.offer(i, int64(k))
					break
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if sp.exitWitness(res, escape, deadlock) {
		return res, nil
	}
	if res.Cycle, err = sp.fairComponent(ctx); err != nil {
		return nil, err
	}
	res.Converges = res.Cycle == nil
	return res, nil
}

// fairComponent runs Tarjan's algorithm, iteratively, on the CSR
// restricted to the region: roots in ascending state order, edges in CSR
// (action) order. It returns the states of the first strongly connected
// component that admits a weakly fair run, in pop order, or nil when none
// does.
func (sp *Space) fairComponent(ctx context.Context) ([]*program.State, error) {
	index := make([]int32, sp.Count) // preorder number from 1; 0 = unvisited
	low := make([]int32, sp.Count)
	onStack := newBitset(sp.Count)
	st := sp.P.Schema.NewState()
	type frame struct {
		v    int64
		edge int
	}
	var (
		stack   []int64
		frames  []frame
		counter int32
	)
	visit := func(v int64) {
		counter++
		index[v], low[v] = counter, counter
		stack = append(stack, v)
		onStack.set(v)
		frames = append(frames, frame{v: v})
	}
	for root := int64(0); root < sp.Count; root++ {
		if root%chunkStates == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !sp.region(root) || index[root] != 0 {
			continue
		}
		visit(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if row := sp.idx.out(f.v); f.edge < len(row) {
				w := int64(row[f.edge])
				f.edge++
				if !sp.region(w) {
					continue
				}
				if index[w] == 0 {
					visit(w)
				} else if onStack.get(w) && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// v roots the component on the stack from v up; while it is
			// still stacked, membership is "on the stack at or above v".
			k := len(stack) - 1
			for stack[k] != v {
				k--
			}
			member := func(j int64) bool { return onStack.get(j) && index[j] >= index[v] }
			if sp.admitsFairRun(stack[k:], member, st) {
				comp := make([]*program.State, 0, len(stack)-k)
				for j := len(stack) - 1; j >= k; j-- {
					comp = append(comp, sp.State(stack[j]))
				}
				return comp, nil
			}
			for _, w := range stack[k:] {
				onStack.clear(w)
			}
			stack = stack[:k]
		}
	}
	return nil, nil
}

// admitsFairRun applies the weak-fairness criterion to one strongly
// connected region set: a computation can stay in it forever only if it
// holds a transition at all (a singleton needs a self-loop), and it can
// do so fairly iff every action enabled at all of its states has a
// transition that stays inside it. Action labels come from zipping each
// state's guards with its CSR row (the k-th edge is the k-th enabled
// action).
func (sp *Space) admitsFairRun(comp []int64, member func(int64) bool, st *program.State) bool {
	if len(comp) == 1 && !slices.Contains(sp.idx.out(comp[0]), int32(comp[0])) {
		return false
	}
	enabled := make([]int, sp.nA) // states of comp the action is enabled at
	internal := make([]bool, sp.nA)
	for _, v := range comp {
		sp.stateInto(v, st)
		row := sp.idx.out(v)
		rank := 0
		for k, a := range sp.P.Actions {
			if a.Guard(st) {
				enabled[k]++
				internal[k] = internal[k] || member(int64(row[rank]))
				rank++
			}
		}
	}
	for k, n := range enabled {
		if n == len(comp) && !internal[k] {
			// Continuously enabled on any run confined to comp, but firing
			// it always leaves comp: no fair run stays.
			return false
		}
	}
	return true
}

// WorstDistances returns, for every state index, the worst-case number of
// steps an arbitrary daemon can stretch before reaching S (0 for S states).
// It requires prior arbitrary-daemon convergence; the boolean result is
// false when the region is cyclic or escapes/deadlocks, in which case no
// finite metric exists.
//
// The table is the exact variant function the paper's Section 8 asks
// designers to exhibit: it strictly decreases on every convergence step
// under the worst daemon. internal/daemon's adversarial daemon maximizes
// it greedily, which on a convergent program realizes the worst case.
func (sp *Space) WorstDistances() ([]int32, bool) {
	d, ok, _ := sp.WorstDistancesContext(context.Background())
	return d, ok
}

// WorstDistancesContext is WorstDistances with cancellation. The
// distances fall out of the sharded fixpoint, and the table is cached on
// the space: the metrics passes, the adversarial daemon, and repeat
// callers all share one computation.
func (sp *Space) WorstDistancesContext(ctx context.Context) ([]int32, bool, error) {
	sp.stepsMu.Lock()
	defer sp.stepsMu.Unlock()
	if sp.stepsKnown {
		return sp.stepsTab, sp.stepsOK, nil
	}
	steps, ok, err := sp.worstDistancesLocked(ctx)
	if err != nil {
		return nil, false, err
	}
	sp.stepsTab, sp.stepsOK, sp.stepsKnown = steps, ok, true
	return steps, ok, nil
}

func (sp *Space) worstDistancesLocked(ctx context.Context) ([]int32, bool, error) {
	res, steps, err := sp.checkConvergenceKahn(ctx)
	if err != nil {
		return nil, false, err
	}
	if !res.Converges {
		return nil, false, nil
	}
	return steps, true, nil
}
