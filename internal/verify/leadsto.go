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
// reachability BFS (waves, with atomic frontier deduplication; the stage
// S collected in the same expansion) and the stage convergence check are
// all sharded across the space's workers, and on the spill tier the BFS
// frontiers spill like every other traversal's.
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

	// Seed with the region states satisfying p but not q (p∧q states are
	// immediately done), then run forward reachability stopping at
	// q-states and region exits. Those stopping states are the stage's S:
	// a transition out of `reach` necessarily hits q or leaves the region,
	// and both discharge the obligation.
	workers := sp.workers()
	reach := newBitset(sp.Count)
	cur := newFrontierSpool(sp.arena, workers)
	defer cur.release()
	err = parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(worker int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			if sp.inT.get(i) && pBits.get(i) && !qBits.get(i) {
				reach.set(i)
				cur.add(worker, i)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if cur.size() == 0 {
		span.end(0)
		return &LeadsToResult{Holds: true}, nil
	}
	stageS := newBitset(sp.Count)
	reached, err := waves(ctx, sp.opts.Progress, &span, cur, func(worker int, _ int32, batch []int64, next *frontierSpool) {
		for _, i := range batch {
			for _, j := range sp.idx.out(i) {
				jj := int64(j)
				if !sp.inT.get(jj) || qBits.get(jj) {
					stageS.testAndSet(jj)
				} else if reach.testAndSet(jj) {
					next.add(worker, jj)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// Reuse the deadlock/cycle analysis of the convergence checkers via a
	// stage space sharing this space's successor table: stage T is the
	// reachable set plus its one-step exits, stage S the exits.
	stageT := reach
	stageT.orInto(stageS)
	// The reachability stage is done; the livelock analysis below runs on
	// a derived stage space and emits its own convergence span.
	span.end(reached)
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
