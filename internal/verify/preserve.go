package verify

import (
	"context"
	"fmt"

	"nonmask/internal/program"
)

// PreserveResult reports whether an action preserves a predicate, with a
// counterexample when it does not.
type PreserveResult struct {
	Preserves bool
	// State is a state where the action is enabled, the predicate (and all
	// Given predicates) hold, and executing the action falsifies the
	// predicate. Nil when Preserves.
	State *program.State
	// Next is the violating successor state. Nil when Preserves.
	Next *program.State
}

// CheckPreservesContext decides, by exhaustive enumeration, whether
// action a preserves predicate c (paper Section 2: "an action of p
// preserves a state predicate R iff starting from any state where the
// action is enabled and R holds, executing the action yields a state
// where R holds").
//
// The optional given predicates restrict attention to states where they all
// hold — the conditional preservation used by Theorem 3 ("preserves each
// constraint in that partition whenever all constraints in lower numbered
// partitions hold"). The state scan is sharded across opts.Workers
// goroutines and reports the counterexample at the lowest state index
// regardless of worker count.
func CheckPreservesContext(ctx context.Context, schema *program.Schema, a *program.Action,
	c *program.Predicate, given []*program.Predicate, opts Options) (*PreserveResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	count, ok := schema.StateCount()
	if !ok || count > opts.maxStates() {
		return nil, fmt.Errorf("verify: state space too large for exhaustive preservation check (%d states)", count)
	}
	workers := opts.workers()
	scr := newSchemaPairs(schema, workers)
	w := newWitness()
	span := startPass(opts, PassPreserve, count)
	err := parallelRange(ctx, workers, count, opts.Progress, func(worker int, lo, hi int64) {
		st, tmp := scr[worker].st, scr[worker].tmp
	states:
		for i := lo; i < hi; i++ {
			schema.StateInto(i, st)
			if !a.Guard(st) || !c.Holds(st) {
				continue
			}
			for _, g := range given {
				if !g.Holds(st) {
					continue states
				}
			}
			a.ApplyInto(st, tmp)
			if !c.Holds(tmp) {
				w.offer(i, 0)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	span.end(count)
	if !w.found() {
		return &PreserveResult{Preserves: true}, nil
	}
	st := schema.StateAt(w.state)
	return &PreserveResult{State: st, Next: a.Apply(st)}, nil
}

// newSchemaPairs allocates per-worker scratch state pairs for a schema that
// has no enclosing Space.
func newSchemaPairs(schema *program.Schema, workers int) []statePair {
	scr := make([]statePair, workers)
	for i := range scr {
		scr[i] = statePair{st: schema.NewScratchState(), tmp: schema.NewScratchState()}
	}
	return scr
}

// CheckPreservesProjectedContext decides preservation by enumerating only
// the variables in the action's footprint and the predicate's declared
// support; all other variables are pinned at their domain minimum. It is
// equivalent to CheckPreservesContext when footprints and supports are
// honest (see program.AuditAction / program.AuditPredicate) and no given
// predicates are supplied, while being exponentially cheaper for large
// programs whose actions and constraints are local — exactly the
// structure the paper's method exploits ("program actions can access and
// update only a limited part of the program state").
//
// Given predicates are also projected: their supports join the enumerated
// variable set.
func CheckPreservesProjectedContext(ctx context.Context, schema *program.Schema, a *program.Action,
	c *program.Predicate, given []*program.Predicate, opts Options) (*PreserveResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	vars := a.Footprint()
	vars = append(vars, c.Vars...)
	for _, g := range given {
		vars = append(vars, g.Vars...)
	}
	vars = program.SortVarIDs(vars)
	count, err := projectedCount(schema, vars, opts)
	if err != nil {
		return nil, err
	}

	workers := opts.workers()
	scr := make([]*program.State, workers)
	for i := range scr {
		scr[i] = schema.NewScratchState() // non-projected variables stay at Dom.Min
	}
	w := newWitness()
	err = parallelRange(ctx, workers, count, opts.Progress, func(worker int, lo, hi int64) {
		st := scr[worker]
	states:
		for i := lo; i < hi; i++ {
			projectInto(schema, vars, i, st)
			if !a.Guard(st) || !c.Holds(st) {
				continue
			}
			for _, g := range given {
				if !g.Holds(st) {
					continue states
				}
			}
			if !c.Holds(a.Apply(st)) {
				w.offer(i, 0)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if !w.found() {
		return &PreserveResult{Preserves: true}, nil
	}
	st := schema.NewState()
	projectInto(schema, vars, w.state, st)
	return &PreserveResult{State: st, Next: a.Apply(st)}, nil
}

// projectedCount sizes the projected space of the given variables against
// the options' state cap.
func projectedCount(schema *program.Schema, vars []program.VarID, opts Options) (int64, error) {
	count := int64(1)
	for _, v := range vars {
		sz := schema.Spec(v).Dom.Size()
		if count > opts.maxStates()/sz {
			return 0, fmt.Errorf("verify: projected space too large (%d vars)", len(vars))
		}
		count *= sz
	}
	return count, nil
}

// projectInto decodes mixed-radix index i over just the projected
// variables into st, leaving all other variables untouched.
func projectInto(schema *program.Schema, vars []program.VarID, i int64, st *program.State) {
	rem := i
	for k := len(vars) - 1; k >= 0; k-- {
		dom := schema.Spec(vars[k]).Dom
		st.Set(vars[k], dom.Min+int32(rem%dom.Size()))
		rem /= dom.Size()
	}
}

// Strategy selects how preservation facts are decided.
type Strategy int

// Strategies. Exhaustive enumerates the full state space (exact, small
// instances); Projected enumerates only footprints and supports (exact
// whenever footprints are honest; scales to large instances).
const (
	Exhaustive Strategy = iota + 1
	Projected
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case Exhaustive:
		return "exhaustive"
	case Projected:
		return "projected"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Preserves dispatches on the strategy.
func Preserves(strategy Strategy, schema *program.Schema, a *program.Action,
	c *program.Predicate, given []*program.Predicate, opts Options) (*PreserveResult, error) {
	return PreservesContext(context.Background(), strategy, schema, a, c, given, opts)
}

// PreservesContext dispatches on the strategy with cancellation.
func PreservesContext(ctx context.Context, strategy Strategy, schema *program.Schema,
	a *program.Action, c *program.Predicate, given []*program.Predicate, opts Options) (*PreserveResult, error) {
	switch strategy {
	case Exhaustive:
		return CheckPreservesContext(ctx, schema, a, c, given, opts)
	case Projected:
		return CheckPreservesProjectedContext(ctx, schema, a, c, given, opts)
	default:
		return nil, fmt.Errorf("verify: unknown strategy %v", strategy)
	}
}

// GuardImpliesNot checks the convergence-action well-formedness condition
// of Section 3: the action's guard must imply ¬c, i.e. the action is
// enabled only where its constraint is violated ("since convergence actions
// are enabled only when ¬S holds, they trivially preserve S"). The check
// enumerates the projected space of the guard's reads and the constraint's
// support. It returns a state where guard ∧ c both hold, or nil.
func GuardImpliesNot(schema *program.Schema, a *program.Action, c *program.Predicate,
	opts Options) (*program.State, error) {
	return GuardImpliesNotContext(context.Background(), schema, a, c, opts)
}

// GuardImpliesNotContext is GuardImpliesNot with cancellation and a sharded
// projected scan; the returned state is the lowest-index counterexample.
func GuardImpliesNotContext(ctx context.Context, schema *program.Schema, a *program.Action,
	c *program.Predicate, opts Options) (*program.State, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	vars := append(append([]program.VarID{}, a.Reads...), c.Vars...)
	vars = program.SortVarIDs(vars)
	count, err := projectedCount(schema, vars, opts)
	if err != nil {
		return nil, err
	}
	workers := opts.workers()
	scr := make([]*program.State, workers)
	for i := range scr {
		scr[i] = schema.NewScratchState()
	}
	w := newWitness()
	err = parallelRange(ctx, workers, count, opts.Progress, func(worker int, lo, hi int64) {
		st := scr[worker]
		for i := lo; i < hi; i++ {
			projectInto(schema, vars, i, st)
			if a.Guard(st) && c.Holds(st) {
				w.offer(i, 0)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if !w.found() {
		return nil, nil
	}
	st := schema.NewState()
	projectInto(schema, vars, w.state, st)
	return st, nil
}
