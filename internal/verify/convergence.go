package verify

import (
	"context"
	"fmt"
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
	defer func() { cur.release() }()
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
	if escape.found() {
		st := sp.State(escape.state)
		a := sp.actionAt(escape.state, escape.extra)
		res.Converges = false
		res.Escape = &ClosureViolation{Pred: sp.T, State: st, Action: a, Next: a.Apply(st)}
		return res, nil, nil
	}
	if deadlock.found() {
		res.Converges = false
		res.Deadlock = sp.State(deadlock.state)
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

	// Phase 3: wave loop. Each wave resolves in batches and hands every
	// newly released predecessor to the next wave's spool; on the spill
	// tier waves overflow to sorted temp-file runs, and processing a wave
	// in sorted batches is sound because no wave member reads a same-wave
	// steps entry — all its region successors resolved in strictly
	// earlier waves.
	var resolved int64
	for cur.size() > 0 {
		span.observeFrontier(cur.size())
		resolved += cur.size()
		next := newFrontierSpool(sp.arena, workers)
		err := cur.drain(func(batch []int64) error {
			return parallelRange(ctx, workers, int64(len(batch)), sp.opts.Progress, func(worker int, lo, hi int64) {
				for w := lo; w < hi; w++ {
					i := batch[w]
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
		})
		cur = next
		if err != nil {
			return nil, nil, err
		}
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

	// Aggregate the exact worst-case metric. The per-state sum is integer
	// and orbit-weighted, so the mean is identical for every worker count
	// and equals the full space's mean exactly in quotient mode.
	var (
		mu    sync.Mutex
		worst int32
		sum   int64
	)
	err = parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
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
		if w > worst {
			worst = w
		}
		sum += s
		mu.Unlock()
	})
	if err != nil {
		return nil, nil, err
	}
	res.WorstSteps = int(worst)
	res.MeanSteps = float64(sum) / float64(res.StatesOutsideS)
	return res, steps, nil
}

// flatten concatenates per-worker index buffers.
func flatten(parts [][]int64) []int64 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int64, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
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
// The region collection and labeled-adjacency build are sharded; the SCC
// analysis itself is sequential (component structure is rarely the
// bottleneck).
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

	region, adj, enabled, err := sp.buildRegionGraph(ctx, res)
	if err != nil {
		return nil, err
	}
	if !res.Converges {
		return res, nil
	}
	// enabled[v] is the sorted action-index list behind region[v]'s CSR
	// edges, materialized by the region-graph build's guard zip.
	enabledAt := func(ai int, v int) bool {
		for _, a := range enabled[v] {
			if int(a) == ai {
				return true
			}
			if int(a) > ai {
				return false
			}
		}
		return false
	}

	// Tarjan SCC over the dense region graph (iterative).
	comps := denseSCCs(adj)

	for _, comp := range comps {
		// Does comp contain any internal edge at all?
		inComp := make(map[int]bool, len(comp))
		for _, v := range comp {
			inComp[v] = true
		}
		hasInternal := false
		internalAction := make(map[int]bool)
		for _, v := range comp {
			for _, e := range adj[v] {
				if inComp[e.to] {
					hasInternal = true
					internalAction[e.action] = true
				}
			}
		}
		if !hasInternal {
			continue // trivial SCC without self-loop: no infinite stay
		}
		// A∞: actions enabled at every state of the component.
		fairCycle := true
		for ai := range sp.P.Actions {
			everywhere := true
			for _, v := range comp {
				if !enabledAt(ai, v) {
					everywhere = false
					break
				}
			}
			if everywhere && !internalAction[ai] {
				// The action is continuously enabled on any run confined to
				// comp but firing it always leaves comp: no fair run stays.
				fairCycle = false
				break
			}
		}
		if fairCycle {
			res.Converges = false
			res.Cycle = make([]*program.State, 0, len(comp))
			for _, v := range comp {
				res.Cycle = append(res.Cycle, sp.State(region[v]))
			}
			return res, nil
		}
	}
	return res, nil
}

// buildRegionGraph collects the T∧¬S region in ascending state order and
// builds its action-labeled transition graph, all sharded. Action labels
// come from zipping each region state's guard scan with its CSR edge list
// (the k-th edge is the k-th enabled action); the per-state enabled-action
// lists are returned for the fair daemon's A∞ test. Escapes and deadlocks
// are recorded on res (minimum-index witness) with res.Converges cleared.
func (sp *Space) buildRegionGraph(ctx context.Context, res *ConvergenceResult) ([]int64, [][]regionEdge, [][]int32, error) {
	workers := sp.workers()
	nChunks := (sp.Count + chunkStates - 1) / chunkStates

	// Pass 1: per-chunk region counts, so that pass 2 can place each
	// chunk's states at a deterministic offset of the dense list.
	counts := make([]int64, nChunks)
	err := parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
		var n int64
		for i := lo; i < hi; i++ {
			if sp.region(i) {
				n++
			}
		}
		counts[lo/chunkStates] = n
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var total int64
	for c := range counts {
		counts[c], total = total, total+counts[c]
	}

	// Pass 2: fill the dense list and the state→dense id map.
	region := make([]int64, total)
	ids := make([]int32, sp.Count)
	err = parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
		base := counts[lo/chunkStates]
		for i := lo; i < hi; i++ {
			if !sp.region(i) {
				ids[i] = -1
				continue
			}
			region[base] = i
			ids[i] = int32(base)
			base++
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}

	// Pass 3: adjacency, one dense node per iteration (disjoint writes).
	// Each region state's guard scan is zipped with its CSR edge list to
	// recover the action labels the packed 4-byte edges leave implicit.
	adj := make([][]regionEdge, total)
	enabled := make([][]int32, total)
	escape, deadlock := newWitness(), newWitness()
	scr := sp.newStates()
	err = parallelRange(ctx, workers, total, sp.opts.Progress, func(worker int, lo, hi int64) {
		st := scr[worker]
		for id := lo; id < hi; id++ {
			i := region[id]
			row := sp.idx.out(i)
			if len(row) == 0 {
				deadlock.offer(i, 0)
				continue
			}
			sp.stateInto(i, st)
			var edges []regionEdge
			acts := make([]int32, 0, len(row))
			rank := 0
			for k, a := range sp.P.Actions {
				if !a.Guard(st) {
					continue
				}
				jj := int64(row[rank])
				rank++
				acts = append(acts, int32(k))
				if !sp.inT.get(jj) {
					escape.offer(i, int64(k))
					continue
				}
				if sp.inS.get(jj) {
					continue
				}
				edges = append(edges, regionEdge{to: int(ids[jj]), action: k})
			}
			adj[id] = edges
			enabled[id] = acts
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if escape.found() {
		st := sp.State(escape.state)
		a := sp.P.Actions[escape.extra]
		res.Converges = false
		res.Escape = &ClosureViolation{Pred: sp.T, State: st, Action: a, Next: a.Apply(st)}
		return region, adj, enabled, nil
	}
	if deadlock.found() {
		res.Converges = false
		res.Deadlock = sp.State(deadlock.state)
	}
	return region, adj, enabled, nil
}

// regionEdge is a transition within the T∧¬S region, labeled with the
// index of the program action that produces it.
type regionEdge struct {
	to     int
	action int
}

// denseSCCs is Tarjan's algorithm over a dense adjacency structure with
// labeled edges; it returns components of dense node ids.
func denseSCCs(adj [][]regionEdge) [][]int {
	n := len(adj)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		comps   [][]int
		stack   []int
		counter int
	)
	type frame struct {
		v, ei int
	}
	var frames []frame
	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		frames = append(frames[:0], frame{v: start})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei].to
				f.ei++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := &frames[len(frames)-1]; low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
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
