package verify

import (
	"context"
	"fmt"
	"math"
	"slices"

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

// CheckConvergenceContext is CheckConvergence with cancellation. The
// verdict is computed at most once per space (see unfair), so a Check's
// verdict also seeds WorstDistances for the metrics passes and the
// adversarial daemon. Verdicts and witnesses do not depend on the worker
// count.
func (sp *Space) CheckConvergenceContext(ctx context.Context) (*ConvergenceResult, error) {
	res, _, err := sp.unfair(ctx)
	if err != nil {
		return nil, err
	}
	cp := *res
	return &cp, nil
}

// unfair returns the space's arbitrary-daemon verdict and, when it
// converges, its worst-case steps table, computing both on the first call
// and caching them under stepsMu. An error (cancellation) caches nothing.
func (sp *Space) unfair(ctx context.Context) (*ConvergenceResult, []int32, error) {
	sp.stepsMu.Lock()
	defer sp.stepsMu.Unlock()
	if sp.unfairRes == nil {
		res, steps, err := sp.longestPaths(ctx)
		if err != nil {
			return nil, nil, err
		}
		sp.unfairRes, sp.stepsTab = res, steps
	}
	return sp.unfairRes, sp.stepsTab, nil
}

// stuckSteps marks, in longestPaths' steps table, a region state that
// reaches a region cycle.
const stuckSteps = math.MinInt32

// longestPaths decides arbitrary-daemon convergence and computes the
// exact worst-case steps table,
//
//	steps[i] = max over enabled actions of (1 if succ∈S else steps[succ]+1),
//
// by one iterative post-order DFS over the forward CSR restricted to the
// region T∧¬S. Roots go in ascending state order and edges in CSR
// (action) order. steps doubles as the colour: 0 is unvisited, ≥1 is
// final, and a negative entry is a state on the DFS path (holding −1 −
// its best so far) or stuckSteps. A state finishes once every edge is
// examined; it is stuck when some region successor was on the path (a
// cycle closes) or stuck (a cycle is reachable). The stuck states are
// therefore exactly the region states that reach a region cycle, and
// cycleWitness extracts a concrete cycle from them.
//
// Each frame is 12 bytes (state, next and end edge positions, resolved
// once when it is pushed); on an acyclic region the stack is at most
// WorstSteps+1 deep, and the span reports the peak depth as its
// Frontier. The walk is sequential at every worker count; only the
// region scan before it is sharded.
//
// The returned steps table (valid only when res.Converges) is the exact
// variant function of the paper's Section 8: it strictly decreases on every
// convergence step under the worst daemon.
func (sp *Space) longestPaths(ctx context.Context) (res *ConvergenceResult, _ []int32, err error) {
	region := countAndNot(sp.inT, sp.inS)
	// Progress: the region scan visits every state, then the DFS finishes
	// every region state once.
	span := startPass(sp.opts, PassConvergeUnfair, sp.Count+region)
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
	if exits, err := sp.regionExits(ctx, res); err != nil {
		return nil, nil, err
	} else if exits {
		return res, nil, nil
	}

	type frame struct {
		state     int32
		next, end uint32 // the state's unexamined edges in its chunk's row
	}
	var (
		stack    []frame
		peak     int
		finished int64
		worst    int32
		sum      int64
		cyclic   bool
	)
	g, inS := sp.idx, sp.inS
	for root := int64(0); root < sp.Count; root++ {
		if !sp.region(root) || steps[root] != 0 {
			continue
		}
		steps[root] = -1
		lo, hi := g.row(root)
		stack = append(stack, frame{state: int32(root), next: lo, end: hi})
		peak = max(peak, 1)
	walk:
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.state
			acc := steps[v]
			row := g.edges[v>>chunkShift]
			for e := f.next; e < f.end; e++ {
				j := row[e]
				if inS.get(int64(j)) {
					acc = min(acc, -2)
					continue
				}
				// No edge escapes T (regionExits), so j is a region state.
				switch d := steps[j]; {
				case d > 0:
					acc = min(acc, -2-d)
				case d < 0:
					acc = stuckSteps
				default:
					steps[v], f.next = acc, e+1
					steps[j] = -1
					lo, hi := g.row(int64(j))
					stack = append(stack, frame{state: j, next: lo, end: hi})
					peak = max(peak, len(stack))
					continue walk
				}
			}
			stack = stack[:len(stack)-1]
			d := int32(stuckSteps)
			if acc != stuckSteps {
				d = -1 - acc
				worst = max(worst, d)
				sum += sp.weightOf(int64(v)) * int64(d)
			} else {
				cyclic = true
			}
			steps[v] = d
			if n := len(stack); n > 0 {
				if p := stack[n-1].state; d == stuckSteps {
					steps[p] = stuckSteps
				} else {
					steps[p] = min(steps[p], -2-d)
				}
			}
			if finished++; finished%chunkStates == 0 {
				sp.opts.Progress.Add(chunkStates)
				if err := ctx.Err(); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	sp.opts.Progress.Add(finished % chunkStates)
	span.observeFrontier(int64(peak))
	if cyclic {
		res.Converges = false
		res.Cycle = sp.cycleWitness(steps)
		return res, nil, nil
	}
	res.WorstSteps = int(worst)
	res.MeanSteps = float64(sum) / float64(res.StatesOutsideS)
	return res, steps, nil
}

// regionExits scans the region T∧¬S for the ways a computation leaves it
// other than into S — an edge escaping T, or a deadlock — and records the
// minimum-index witness of either on res (exitWitness). It reports
// whether one was found.
func (sp *Space) regionExits(ctx context.Context, res *ConvergenceResult) (bool, error) {
	escape, deadlock := newWitness(), newWitness()
	err := parallelRange(ctx, sp.workers(), sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
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
		return false, err
	}
	return sp.exitWitness(res, escape, deadlock), nil
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

// cycleWitness extracts a concrete region cycle from the stuck states of
// a longestPaths table (the negative entries: the region states that
// reach a region cycle). Every such state has at least one stuck region
// successor, so a DFS restricted to them must close a cycle; the DFS
// stack at the moment the back edge appears is the cycle, in forward
// order.
func (sp *Space) cycleWitness(steps []int32) []*program.State {
	unresolved := func(i int64) bool { return sp.region(i) && steps[i] < 0 }
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

	// Escapes and deadlocks first, by the arbitrary-daemon verdict's scan.
	if exits, err := sp.regionExits(ctx, res); err != nil {
		return nil, err
	} else if exits {
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

// WorstDistancesContext is WorstDistances with cancellation. The table
// is the arbitrary-daemon verdict's own (unfair), cached on the space: a
// Check's convergence verdict, the metrics passes, the adversarial daemon
// and repeat callers all share one computation.
func (sp *Space) WorstDistancesContext(ctx context.Context) ([]int32, bool, error) {
	res, steps, err := sp.unfair(ctx)
	if err != nil {
		return nil, false, err
	}
	return steps, res.Converges, nil
}
