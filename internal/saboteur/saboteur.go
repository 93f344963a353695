// Package saboteur synthesizes worst-case bounded fault schedules — the
// adversarial counterpart of internal/verify. Where the checker proves
// that *every* schedule of at most k transient faults recovers, the
// saboteur searches the same enumerated transition graph for the *one*
// schedule an adversary would pick: an interleaving of fault actions with
// daemon moves, starting inside the invariant, that maximizes an
// objective. Two objectives are supported:
//
//	recovery: maximize the worst-case recovery time after the last fault,
//	          scored by the checker's exact worst-case distance table
//	          (Space.WorstDistances) so the claimed cost is the same
//	          number the metrics passes report.
//	escape:   minimize the number of faults needed to leave the fault
//	          span T — a probe of how tight the declared span is.
//
// The search is best-first branch-and-bound over the product graph of
// (state, faults spent): nodes are expanded in decreasing order of the
// admissible bound worst(i) + (k−f)·Δmax (program moves never increase
// the worst table — that is its fixpoint equation — and one fault gains
// at most Δmax), and an exclusion set of states already reached with
// fewer faults prunes dominated schedules. Each round of the loop either
// improves the incumbent schedule or, when the best outstanding bound
// falls to the incumbent, proves k-bounded optimality. Every result
// carries a Witness that replays independently (witness.go), closing the
// loop between exact search and simulation.
package saboteur

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"time"

	"nonmask/internal/fault"
	"nonmask/internal/obs"
	"nonmask/internal/program"
	"nonmask/internal/verify"
)

const (
	// ObjectiveRecovery maximizes post-schedule worst-case recovery time.
	ObjectiveRecovery = "recovery"
	// ObjectiveEscape minimizes the faults needed to leave the span T.
	ObjectiveEscape = "escape"

	// MaxK bounds the fault budget (the product graph carries the spent
	// count in 5 bits; realistic adversaries are far below this).
	MaxK = 16

	// DefaultBudget is the expansion budget when Options.Budget is zero.
	DefaultBudget = 1 << 22

	// PassSearch is the pass name the search emits on the space's tracer,
	// joining the checker's span taxonomy (DESIGN §8).
	PassSearch = "saboteur_search"
)

// Options configures one search.
type Options struct {
	// K is the fault budget: schedules use at most K fault steps.
	// Required, in [1, MaxK].
	K int
	// Objective is ObjectiveRecovery (the default when empty) or
	// ObjectiveEscape.
	Objective string
	// Budget caps product-graph node expansions; zero means
	// DefaultBudget. An exhausted budget returns the incumbent with
	// Optimal=false.
	Budget int64
	// Faults overrides the fault alphabet; nil means Alphabet(p).
	Faults []*program.Action
	// OnImprove, when non-nil, is invoked on the search goroutine each
	// time the incumbent improves: cost is the new objective value,
	// faults the schedule's fault count, expanded the product-graph
	// nodes expanded so far. Observation only — it must not block long
	// and cannot influence the search, so setting it never perturbs the
	// result (or any fingerprint derived from the other options).
	OnImprove func(cost, faults int, expanded int64)
}

// Normalized validates the options against the engine's own bounds and
// fills defaults (objective, budget). Front ends (csserved, csverify)
// call it at submission time so a bad fault budget or objective fails
// fast with the same wording the engine itself would use.
func (o Options) Normalized() (Options, error) { return o.normalize() }

func (o Options) normalize() (Options, error) {
	if o.K < 1 || o.K > MaxK {
		return o, fmt.Errorf("saboteur: k must be in [1, %d], got %d", MaxK, o.K)
	}
	switch o.Objective {
	case "":
		o.Objective = ObjectiveRecovery
	case ObjectiveRecovery, ObjectiveEscape:
	default:
		return o, fmt.Errorf("saboteur: unknown objective %q (want %q or %q)",
			o.Objective, ObjectiveRecovery, ObjectiveEscape)
	}
	if o.Budget < 0 {
		return o, fmt.Errorf("saboteur: budget must be non-negative, got %d", o.Budget)
	}
	if o.Budget == 0 {
		o.Budget = DefaultBudget
	}
	return o, nil
}

// Result reports what one search established.
type Result struct {
	// Objective, K and Budget echo the normalized options.
	Objective string
	K         int
	Budget    int64
	// Cost is the objective value of the incumbent schedule: worst-case
	// recovery steps after the schedule (recovery), or the number of
	// faults spent to leave the span (escape, when Escaped).
	Cost int
	// Escaped reports that an escape-objective search left the span.
	Escaped bool
	// Optimal reports that the search proved no k-bounded schedule beats
	// the incumbent (false only when Budget ran out first).
	Optimal bool
	// Expanded is the number of product-graph nodes expanded.
	Expanded int64
	// Rounds counts incumbent improvements — the iterations of the
	// iterate-and-exclude loop that found a strictly better schedule.
	Rounds int
	// DeltaMax is the largest one-fault gain of the worst-case distance
	// across the span (the Δ of the admissible bound; recovery only).
	DeltaMax int
	// Witness is the replayable schedule, nil when Cost is 0 (no fault
	// does damage) or no escape was found.
	Witness *Witness
	// Elapsed is the search wall-clock time.
	Elapsed time.Duration
}

// Alphabet returns the fault actions the saboteur schedules for a
// program: the program's own Fault-kind actions when it declares any
// (GCL fault sections), otherwise the universal single-variable
// corruptions over the schema — the transient-fault model of the paper's
// Section 2, under which any one variable may be perturbed to any value
// in its domain.
func Alphabet(p *program.Program) []*program.Action {
	if own := p.OfKind(program.Fault); len(own) > 0 {
		return own
	}
	vars := make([]program.VarID, p.Schema.Len())
	for i := range vars {
		vars[i] = program.VarID(i)
	}
	return fault.Actions(p.Schema, vars)
}

// Search synthesizes a worst-case k-fault schedule over the space's
// transition graph. The space must carry the fault span the schedule is
// confined to (its T); for the recovery objective the space must converge
// under the arbitrary daemon, since the objective is scored by the
// worst-case distance table. Spans are emitted on the space's tracer
// under PassSearch.
func Search(ctx context.Context, sp *verify.Space, opts Options) (*Result, error) {
	o, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	alphabet := o.Faults
	if alphabet == nil {
		alphabet = Alphabet(sp.P)
	}
	if len(alphabet) == 0 {
		return nil, fmt.Errorf("saboteur: empty fault alphabet for %q", sp.P.Name)
	}
	e := &engine{
		sp:        sp,
		cur:       sp.NewSuccCursor(),
		codec:     sp.Codec(),
		st:        sp.P.Schema.NewState(),
		tmp:       sp.P.Schema.NewState(),
		k:         o.K,
		budget:    o.Budget,
		alphabet:  alphabet,
		onImprove: o.OnImprove,
		minF:      make([]uint8, sp.Count),
		parents:   make(map[uint64]parent),
	}
	for i := range e.minF {
		e.minF[i] = unseen
	}

	tracer := sp.Tracer()
	if tracer != nil {
		tracer.PassStart(PassSearch, 0)
	}
	start := time.Now()
	var res *Result
	if o.Objective == ObjectiveEscape {
		res, err = e.searchEscape(ctx)
	} else {
		res, err = e.searchRecovery(ctx)
	}
	elapsed := time.Since(start)
	if tracer != nil {
		stat := obs.PassStat{Pass: PassSearch, Workers: sp.Workers(), ElapsedMS: float64(elapsed) / float64(time.Millisecond)}
		if res != nil {
			stat.States = res.Expanded
		}
		tracer.PassEnd(stat)
	}
	if err != nil {
		return nil, err
	}
	res.Objective, res.K, res.Budget, res.Elapsed = o.Objective, o.K, o.Budget, elapsed
	if res.Witness != nil {
		res.Witness.Objective = o.Objective
		res.Witness.K = o.K
		res.Witness.Cost = res.Cost
	}
	return res, nil
}

// unseen marks states no schedule has reached yet in the exclusion set.
const unseen = 0xFF

// nkey packs a product-graph node (state, faults spent) into a map key;
// MaxK ≤ 16 fits the low 5 bits.
func nkey(i int64, f int) uint64 { return uint64(i)<<5 | uint64(f) }

// parent records how a node was first reached, for witness back-walks.
// Seeds (invariant states at f=0) have no entry — the walk stops there.
type parent struct {
	key uint64
	act *program.Action
}

type engine struct {
	sp       *verify.Space
	cur      *verify.SuccCursor
	codec    *program.Codec
	st, tmp  *program.State
	k        int
	budget   int64
	alphabet []*program.Action

	// minF[i] is the fewest faults any enqueued schedule spent reaching
	// state i — the exclusion set of the iterate-and-exclude loop. A node
	// (i, f) with f ≥ minF[i] is dominated (same state, no more budget
	// left) and is never expanded again.
	minF    []uint8
	parents map[uint64]parent
	h       nodeHeap

	// onImprove mirrors Options.OnImprove (nil when unset).
	onImprove func(cost, faults int, expanded int64)

	expanded int64
}

// node is a heap entry; prio orders expansion (higher first): the
// admissible upper bound for recovery, k−f for escape (so fewer faults
// pop first and the first escape found is minimal).
type node struct {
	i    int64
	f    int32
	prio int32
}

type nodeHeap []node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(a, b int) bool {
	// Canonical total order so witnesses are identical across runs and
	// worker counts: bound desc, then state asc, then faults asc.
	if h[a].prio != h[b].prio {
		return h[a].prio > h[b].prio
	}
	if h[a].i != h[b].i {
		return h[a].i < h[b].i
	}
	return h[a].f < h[b].f
}
func (h nodeHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// faultSteps calls fn(a, j) for every alphabet action a enabled at state
// i, in alphabet order, with the index j of the state it leads to.
func (e *engine) faultSteps(i int64, fn func(a *program.Action, j int64)) {
	e.codec.Decode(i, e.st)
	for _, a := range e.alphabet {
		if !a.Guard(e.st) {
			continue
		}
		a.ApplyInto(e.st, e.tmp)
		fn(a, e.codec.Encode(e.tmp))
	}
}

// push enqueues (i, f) unless the exclusion set dominates it.
func (e *engine) push(i int64, f int, prio int32, par parent) {
	if e.minF[i] <= uint8(f) {
		return
	}
	e.minF[i] = uint8(f)
	e.parents[nkey(i, f)] = par
	heap.Push(&e.h, node{i: i, f: int32(f), prio: prio})
}

func (e *engine) poll(ctx context.Context) error {
	if e.expanded&1023 == 0 {
		return ctx.Err()
	}
	return nil
}

// searchRecovery finds the k-fault schedule maximizing worst-case
// recovery time. Seeds are all invariant states (the system is at a
// legitimate state when the faults strike); fault steps are confined to
// the span T, matching the convergence premise the cost is scored by.
func (e *engine) searchRecovery(ctx context.Context) (*Result, error) {
	sp := e.sp
	worst, ok, err := sp.WorstDistancesContext(ctx)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("saboteur: recovery objective requires arbitrary-daemon convergence of %q (no finite worst-case distance table exists)", sp.P.Name)
	}
	dmax, err := e.deltaMax(ctx, worst)
	if err != nil {
		return nil, err
	}
	if dmax <= 0 {
		// No single fault gains distance anywhere in the span: every
		// k-fault schedule recovers for free, nothing to hunt.
		return &Result{Optimal: true, DeltaMax: dmax}, nil
	}
	ub := func(i int64, f int) int32 { return worst[i] + int32((e.k-f)*dmax) }

	// Seed layer: the f=0 invariant states are all equivalent roots
	// (closure keeps program moves inside S at worst 0), so instead of
	// heaping |S| identical nodes, expand their fault edges directly.
	for i := int64(0); i < sp.Count; i++ {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !sp.InS(i) {
			continue
		}
		e.minF[i] = 0
		e.faultSteps(i, func(a *program.Action, j int64) {
			if sp.InT(j) {
				e.push(j, 1, ub(j, 1), parent{key: nkey(i, 0), act: a})
			}
		})
	}

	incumbent := 0 // zero faults, zero recovery: always achievable
	var peak uint64
	havePeak := false
	rounds := 0
	optimal := false
	for e.h.Len() > 0 {
		n := heap.Pop(&e.h).(node)
		if int(n.prio) <= incumbent {
			// Admissible bound: nothing outstanding beats the incumbent.
			optimal = true
			break
		}
		if e.minF[n.i] < uint8(n.f) {
			continue // excluded: a thriftier schedule reached this state
		}
		if e.expanded >= e.budget {
			break
		}
		e.expanded++
		if err := e.poll(ctx); err != nil {
			return nil, err
		}
		f := int(n.f)
		if w := int(worst[n.i]); w > incumbent {
			incumbent, peak, havePeak = w, nkey(n.i, f), true
			rounds++
			if e.onImprove != nil {
				e.onImprove(incumbent, f, e.expanded)
			}
		}
		if f < e.k {
			e.faultSteps(n.i, func(a *program.Action, j int64) {
				if sp.InT(j) {
					e.push(j, f+1, ub(j, f+1), parent{key: nkey(n.i, f), act: a})
				}
			})
		}
		e.cur.ForEach(n.i, func(a *program.Action, j int64) bool {
			// Fault-kind actions of the program are scheduled through the
			// alphabet above, where they spend budget — not as free moves.
			if a.Kind != program.Fault {
				e.push(j, f, ub(j, f), parent{key: nkey(n.i, f), act: a})
			}
			return true
		})
	}
	if e.h.Len() == 0 {
		optimal = true
	}

	res := &Result{Cost: incumbent, Optimal: optimal, Expanded: e.expanded, Rounds: rounds, DeltaMax: dmax}
	if havePeak && incumbent > 0 {
		w, err := e.buildWitness(peak, nil)
		if err != nil {
			return nil, err
		}
		if err := e.appendRecovery(w, int64(peak>>5), worst); err != nil {
			return nil, err
		}
		res.Witness = w
	}
	return res, nil
}

// searchEscape finds the fewest faults that carry the system from the
// invariant out of the span T — uniform-cost search over the same product
// graph (prio k−f pops thriftier schedules first). Cost counts faults; a
// zero-fault escape would be a closure violation of T, which is the
// closure checker's verdict, not the saboteur's.
func (e *engine) searchEscape(ctx context.Context) (*Result, error) {
	sp := e.sp
	type escape struct {
		key  uint64 // node the escaping step fires from
		act  *program.Action
		cost int
	}
	var best *escape
	rounds := 0
	record := func(key uint64, act *program.Action, cost int) {
		if best == nil || cost < best.cost {
			best = &escape{key: key, act: act, cost: cost}
			rounds++
			if e.onImprove != nil {
				e.onImprove(cost, cost, e.expanded)
			}
		}
	}

	for i := int64(0); i < sp.Count; i++ {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !sp.InS(i) {
			continue
		}
		e.minF[i] = 0
		e.faultSteps(i, func(a *program.Action, j int64) {
			switch {
			case best != nil:
			case !sp.InT(j):
				record(nkey(i, 0), a, 1)
			default:
				e.push(j, 1, int32(e.k-1), parent{key: nkey(i, 0), act: a})
			}
		})
	}

	optimal := best != nil // a 1-fault escape cannot be beaten
	exhausted := false
	if best == nil {
		for e.h.Len() > 0 {
			n := heap.Pop(&e.h).(node)
			f := int(n.f)
			if best != nil && f >= best.cost {
				// Any escape from a level-f node costs ≥ f faults.
				optimal = true
				break
			}
			if e.minF[n.i] < uint8(n.f) {
				continue
			}
			if e.expanded >= e.budget {
				exhausted = true
				break
			}
			e.expanded++
			if err := e.poll(ctx); err != nil {
				return nil, err
			}
			e.cur.ForEach(n.i, func(a *program.Action, j int64) bool {
				if a.Kind == program.Fault {
					return true
				}
				if !sp.InT(j) {
					record(nkey(n.i, f), a, f)
					return false
				}
				e.push(j, f, int32(e.k-f), parent{key: nkey(n.i, f), act: a})
				return true
			})
			if best != nil && best.cost == f {
				optimal = true
				break
			}
			if f < e.k {
				e.faultSteps(n.i, func(a *program.Action, j int64) {
					if !sp.InT(j) {
						record(nkey(n.i, f), a, f+1)
						return
					}
					e.push(j, f+1, int32(e.k-f-1), parent{key: nkey(n.i, f), act: a})
				})
			}
		}
		if e.h.Len() == 0 && !exhausted {
			optimal = true // the whole k-fault reachable set stayed in T
		}
	}

	res := &Result{Optimal: optimal, Expanded: e.expanded, Rounds: rounds}
	if best != nil {
		res.Escaped = true
		res.Cost = best.cost
		w, err := e.buildWitness(best.key, best.act)
		if err != nil {
			return nil, err
		}
		res.Witness = w
	}
	return res, nil
}

// deltaMax computes Δmax, the largest one-fault gain of the worst-case
// distance across the span, sharded over the space's worker count.
// Program moves strictly decrease the worst table (its fixpoint
// equation), so only fault steps gain distance — by at most Δmax each;
// induction over remaining budget makes worst(i) + (k−f)·Δmax an
// admissible bound on any k-fault schedule through (i, f).
func (e *engine) deltaMax(ctx context.Context, worst []int32) (int, error) {
	sp := e.sp
	workers := sp.Workers()
	count := sp.Count
	chunk := (count + int64(workers) - 1) / int64(workers)
	gains := make([]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := int64(w) * chunk
		hi := lo + chunk
		if hi > count {
			hi = count
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w int, lo, hi int64) {
			defer wg.Done()
			st, tmp := sp.P.Schema.NewState(), sp.P.Schema.NewState()
			g := int32(0)
			for i := lo; i < hi; i++ {
				if i&4095 == 0 && ctx.Err() != nil {
					return
				}
				if !sp.InT(i) {
					continue
				}
				e.codec.Decode(i, st)
				for _, a := range e.alphabet {
					if !a.Guard(st) {
						continue
					}
					a.ApplyInto(st, tmp)
					j := e.codec.Encode(tmp)
					if !sp.InT(j) {
						continue
					}
					if d := worst[j] - worst[i]; d > g {
						g = d
					}
				}
			}
			gains[w] = g
		}(w, lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	dmax := int32(0)
	for _, g := range gains {
		if g > dmax {
			dmax = g
		}
	}
	return int(dmax), nil
}

// buildWitness back-walks the parent chain from the given node to its
// invariant seed, then replays forward to record per-step valuations.
// For escape witnesses, final is the escaping action appended after the
// chain; nil for recovery witnesses (the peak is the chain's last node).
func (e *engine) buildWitness(key uint64, final *program.Action) (*Witness, error) {
	sp := e.sp
	var acts []*program.Action
	at := key
	for {
		i, f := int64(at>>5), int(at&31)
		if f == 0 && sp.InS(i) {
			break
		}
		p, ok := e.parents[at]
		if !ok {
			return nil, fmt.Errorf("saboteur: internal: broken parent chain at state %d", i)
		}
		acts = append(acts, p.act)
		at = p.key
	}
	for l, r := 0, len(acts)-1; l < r; l, r = l+1, r-1 {
		acts[l], acts[r] = acts[r], acts[l]
	}
	if final != nil {
		acts = append(acts, final)
	}

	start := int64(at >> 5)
	st := sp.P.Schema.StateAt(start)
	w := &Witness{
		Version: WitnessVersion,
		Program: sp.P.Name,
		Vars:    sp.P.Schema.Names(),
		Start:   st.Values(),
	}
	for _, a := range acts {
		if !a.Guard(st) {
			return nil, fmt.Errorf("saboteur: internal: %q disabled during witness replay at %s", a.Name, st)
		}
		st = a.Apply(st)
		w.Steps = append(w.Steps, step(a, st))
	}
	return w, nil
}

// appendRecovery extends a recovery witness with the greedy worst-case
// descent from the peak: at each state take the successor maximizing the
// worst table, first maximum winning — exactly the choice the simulator's
// worst-case daemon (daemon.NewWorstCase) makes, so the recovery replays
// verbatim under it. The fixpoint equation worst(i) = 1 + max over
// successors makes the descent exactly worst(peak) steps long.
func (e *engine) appendRecovery(w *Witness, peak int64, worst []int32) error {
	sp := e.sp
	i := peak
	for !sp.InS(i) {
		if len(w.Recovery) > int(worst[peak]) {
			return fmt.Errorf("saboteur: internal: recovery from %s exceeds worst distance %d", sp.State(peak), worst[peak])
		}
		var bestA *program.Action
		var bestJ int64
		bestW := int32(-1)
		e.cur.ForEach(i, func(a *program.Action, j int64) bool {
			if worst[j] > bestW {
				bestW, bestJ, bestA = worst[j], j, a
			}
			return true
		})
		if bestA == nil {
			return fmt.Errorf("saboteur: internal: deadlock during recovery at %s", sp.State(i))
		}
		i = bestJ
		w.Recovery = append(w.Recovery, step(bestA, sp.State(i)))
	}
	if got, want := len(w.Recovery), int(worst[peak]); got != want {
		return fmt.Errorf("saboteur: internal: greedy recovery took %d steps, worst table says %d", got, want)
	}
	return nil
}
