package verify

import (
	"context"
	"fmt"

	"nonmask/internal/program"
)

// StairResult reports the verification of a convergence stair.
type StairResult struct {
	// OK is true when every step of the stair holds.
	OK bool
	// Steps records the per-step verdicts, from T down to S.
	Steps []StairStep
}

// StairStep is one stage of a convergence stair.
type StairStep struct {
	// From and To name the stage's predicates (R_i ⊇ R_{i+1}).
	From, To string
	// Closed reports that To is closed in the program.
	Closed bool
	// Converges reports that every computation from From reaches To.
	Converges bool
	// Detail carries the counterexample summary when a check fails.
	Detail string
}

// CheckStair verifies a convergence stair (Gouda & Multari, cited by the
// paper in Section 7: "a convergence stair of height two"): a chain of
// closed predicates T = R_0 ⊇ R_1 ⊇ ... ⊇ R_n = S such that from each R_i
// every computation reaches R_{i+1}. Stairs let cyclic constraint graphs
// be verified stage by stage: within each stage the graph restricted to
// the stage's states may be self-looping even when the global graph is
// cyclic.
//
// stairs lists the intermediate predicates R_1..R_{n-1}; the space's T and
// S bound the chain. Convergence at each stage is checked under the
// arbitrary daemon when fair is false, and under the weakly fair daemon
// when fair is true (some layered compositions — e.g. a wave over a
// not-yet-stable spanning tree — converge only fairly; see
// internal/protocols/composed). Implications R_i ⊇ R_{i+1} are checked
// semantically.
func (sp *Space) CheckStair(stairs []*program.Predicate, fair bool) *StairResult {
	res, _ := sp.CheckStairContext(context.Background(), stairs, fair)
	return res
}

// CheckStairContext is CheckStair with cancellation. Each chain predicate
// is evaluated once into a bitset (sharded); stage convergence runs on
// derived spaces sharing this space's successor table, so the stage checks
// cost no re-enumeration.
func (sp *Space) CheckStairContext(ctx context.Context, stairs []*program.Predicate, fair bool) (*StairResult, error) {
	// The stair span wraps the whole chain; each stage's closure and
	// convergence checks nest their own spans inside it.
	span := startPass(sp.opts, PassStair, sp.Count)
	chain := make([]*program.Predicate, 0, len(stairs)+2)
	chain = append(chain, sp.T)
	chain = append(chain, stairs...)
	chain = append(chain, sp.S)

	bits := make([]bitset, len(chain))
	for i, pred := range chain {
		var err error
		if bits[i], err = sp.bitsFor(ctx, pred); err != nil {
			return nil, err
		}
	}

	res := &StairResult{OK: true}
	for i := 0; i+1 < len(chain); i++ {
		from, to := chain[i], chain[i+1]
		fromBits, toBits := bits[i], bits[i+1]
		step := StairStep{From: from.Name, To: to.Name, Closed: true, Converges: true}

		// Subset: to ⊆ from.
		if idx := firstAndNot(toBits, fromBits); idx >= 0 {
			step.Converges = false
			step.Closed = false
			step.Detail = fmt.Sprintf("stair not nested: %s holds but %s fails at %s",
				to.Name, from.Name, sp.State(idx))
			res.OK = false
		}
		if step.Detail == "" {
			// Closure of the stage's target.
			v, err := sp.CheckClosedContext(ctx, to, nil)
			if err != nil {
				return nil, err
			}
			if v != nil {
				step.Closed = false
				step.Detail = v.Error()
				res.OK = false
			} else {
				// Convergence from the stage's source to its target: a stage
				// space with S := to, T := from over the shared table.
				stage := sp.derived(to, from, toBits, fromBits)
				var conv *ConvergenceResult
				var err error
				if fair {
					conv, err = stage.CheckFairConvergenceContext(ctx)
				} else {
					conv, err = stage.CheckConvergenceContext(ctx)
				}
				if err != nil {
					return nil, err
				}
				if !conv.Converges {
					step.Converges = false
					step.Detail = conv.Summary()
					res.OK = false
				} else if fair {
					step.Detail = "converges (fair)"
				} else {
					step.Detail = fmt.Sprintf("worst %d steps", conv.WorstSteps)
				}
			}
		}
		res.Steps = append(res.Steps, step)
	}
	span.end(sp.Count)
	return res, nil
}

// VariantViolation describes a step on which a claimed variant function
// fails to decrease.
type VariantViolation struct {
	State  *program.State
	Action *program.Action
	Next   *program.State
	// Before and After are the variant's values around the step.
	Before, After int64
}

// Error renders the violation.
func (v *VariantViolation) Error() string {
	return fmt.Sprintf("variant does not decrease: action %q maps %s (rank %d) to %s (rank %d)",
		v.Action.Name, v.State, v.Before, v.Next, v.After)
}

// CheckVariant verifies a claimed variant function for convergence under
// the arbitrary daemon (paper Section 8: "a variant function is a mapping
// from the program state space to a set that is wellfounded under a
// relation <, such that in each step of the computation the variant
// function value does not increase and eventually decreases").
//
// For the arbitrary daemon the required shape is strict: every enabled
// action from a T∧¬S state must strictly decrease the variant or land in
// S, and the variant must be non-negative. Together with the absence of
// T∧¬S deadlocks this implies convergence. The exact table produced by
// WorstDistances always qualifies; CheckVariant lets designers validate
// hand-written, intuition-carrying variants.
func (sp *Space) CheckVariant(variant func(*program.State) int64) *VariantViolation {
	v, _ := sp.CheckVariantContext(context.Background(), variant)
	return v
}

// CheckVariantContext is CheckVariant with cancellation and a sharded
// region scan. The variant function is called concurrently and must be
// pure, like guards and predicate bodies. The reported violation is the
// one at the lowest state index regardless of worker count.
func (sp *Space) CheckVariantContext(ctx context.Context, variant func(*program.State) int64) (*VariantViolation, error) {
	const negative = -1 // witness payload for a negative variant value
	w := newWitness()
	scr := sp.newStatePairs()
	span := startPass(sp.opts, PassVariant, sp.Count)
	err := parallelRange(ctx, sp.workers(), sp.Count, sp.opts.Progress, func(worker int, lo, hi int64) {
		st, tmp := scr[worker].st, scr[worker].tmp
		for i := lo; i < hi; i++ {
			if !sp.region(i) {
				continue
			}
			sp.stateInto(i, st)
			before := variant(st)
			if before < 0 {
				w.offer(i, negative)
				continue
			}
			// The witness payload is the offending edge's rank among i's
			// enabled actions (recovered by actionAt below). In quotient
			// mode the variant is evaluated at the canonical successor — a
			// symmetric variant (the only kind the quotient contract
			// admits) gives the same value either way.
			for k, j := range sp.idx.out(i) {
				if sp.inS.get(int64(j)) {
					continue
				}
				sp.stateInto(int64(j), tmp)
				if variant(tmp) >= before {
					w.offer(i, int64(k))
					break
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	span.end(sp.Count)
	if !w.found() {
		return nil, nil
	}
	st := sp.State(w.state)
	before := variant(st)
	if w.extra == negative {
		return &VariantViolation{State: st, Before: before, After: before,
			Action: &program.Action{Name: "(negative variant)"}}, nil
	}
	a := sp.actionAt(w.state, w.extra)
	next := a.Apply(st)
	return &VariantViolation{State: st, Action: a, Next: next,
		Before: before, After: variant(next)}, nil
}
