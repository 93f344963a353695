package verify

import (
	"context"

	"nonmask/internal/program"
)

// LeadsToResult reports a leads-to (progress) verdict.
type LeadsToResult struct {
	// Holds is true when every computation of the program that stays in
	// the region and visits a p-state subsequently reaches a q-state.
	Holds bool
	// Stuck, when non-nil, is a reachable p-state (or successor) from
	// which a computation can avoid q forever: either a terminal state or
	// a member of the witness cycle.
	Stuck *program.State
	// Cycle holds the witness states when the failure is a livelock.
	Cycle []*program.State
}

// forEachSucc invokes fn(j) for every enabled successor index j of state
// i, in action order.
func (sp *Space) forEachSucc(i int64, fn func(j int64)) {
	for _, j := range sp.idx.out(i) {
		fn(int64(j))
	}
}

// LeadsTo decides the progress property "p leads to q within the region T"
// (the space's fault-span acts as the region): every computation that
// starts at a region state satisfying p reaches a state satisfying q.
// With fair true the weakly fair daemon is assumed (the paper's
// computation model); otherwise the arbitrary daemon.
//
// This generalizes convergence — convergence is "true leads to S" — and
// verifies the paper's progress specifications exactly, e.g. the token
// ring's "each privileged node eventually yields its privilege to its
// successor" (Section 7.1 spec (ii)): within S, Privileged(j) leads to
// Privileged(j+1).
//
// Implementation: restrict attention to region states reachable from p
// without passing through q; the property holds iff that restricted
// subgraph has no terminal states and no (fair, if fair) cycles.
func (sp *Space) LeadsTo(p, q *program.Predicate, fair bool) *LeadsToResult {
	res, _ := sp.LeadsToContext(context.Background(), p, q, fair)
	return res
}

// LeadsToContext is LeadsTo with cancellation: predicate evaluation, the
// reachability BFS (level-synchronized, atomic frontier deduplication) and
// the stage convergence check are all sharded across the space's workers.
func (sp *Space) LeadsToContext(ctx context.Context, p, q *program.Predicate, fair bool) (*LeadsToResult, error) {
	span := startPass(sp.opts, PassLeadsTo, sp.Count)
	pBits, err := sp.evalPred(ctx, p)
	if err != nil {
		return nil, err
	}
	qBits, err := sp.evalPred(ctx, q)
	if err != nil {
		return nil, err
	}

	// Collect region states satisfying p but not q (p∧q states are
	// immediately done), then run forward reachability stopping at
	// q-states and region exits.
	workers := sp.workers()
	reach := newBitset(sp.Count)
	lists := make([][]int64, workers)
	err = parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(worker int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			if sp.inT.get(i) && pBits.get(i) && !qBits.get(i) {
				reach.set(i)
				lists[worker] = append(lists[worker], i)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	frontier := flatten(lists)
	reached := append([]int64(nil), frontier...)
	for len(frontier) > 0 {
		span.observeFrontier(int64(len(frontier)))
		next := make([][]int64, workers)
		err := parallelRange(ctx, workers, int64(len(frontier)), sp.opts.Progress, func(worker int, lo, hi int64) {
			for w := lo; w < hi; w++ {
				sp.forEachSucc(frontier[w], func(j int64) {
					if !sp.inT.get(j) {
						return // leaving the region ends the obligation
					}
					if qBits.get(j) {
						return
					}
					if reach.testAndSet(j) {
						next[worker] = append(next[worker], j)
					}
				})
			}
		})
		if err != nil {
			return nil, err
		}
		frontier = flatten(next)
		reached = append(reached, frontier...)
	}
	if len(reached) == 0 {
		span.end(int64(0))
		return &LeadsToResult{Holds: true}, nil
	}
	// Reuse the deadlock/cycle analysis of the convergence checkers via a
	// stage space sharing this space's successor table: stage T is the
	// reachable set plus its one-step exits, stage S the exits. A
	// transition out of `reach` necessarily hits q or leaves the region;
	// both discharge the obligation, so both count as accepting.
	stageS := newBitset(sp.Count)
	err = parallelRange(ctx, workers, int64(len(reached)), sp.opts.Progress, func(worker int, lo, hi int64) {
		for w := lo; w < hi; w++ {
			sp.forEachSucc(reached[w], func(j int64) {
				if !reach.get(j) {
					stageS.testAndSet(j)
				}
			})
		}
	})
	if err != nil {
		return nil, err
	}
	stageT := newBitset(sp.Count)
	stageT.orInto(reach)
	stageT.orInto(stageS)
	// The reachability stage is done; the livelock analysis below runs on
	// a derived stage space and emits its own convergence span.
	span.end(int64(len(reached)))
	stage := sp.derived(q, sp.T, stageS, stageT)
	var conv *ConvergenceResult
	if fair {
		conv, err = stage.CheckFairConvergenceContext(ctx)
	} else {
		conv, err = stage.CheckConvergenceContext(ctx)
	}
	if err != nil {
		return nil, err
	}
	if conv.Converges {
		return &LeadsToResult{Holds: true}, nil
	}
	res := &LeadsToResult{Cycle: conv.Cycle}
	if conv.Deadlock != nil {
		res.Stuck = conv.Deadlock
	} else if len(conv.Cycle) > 0 {
		res.Stuck = conv.Cycle[0]
	}
	return res, nil
}
