// Package core implements the paper's design method for nonmasking
// fault-tolerant programs (Section 3).
//
// The workflow mirrors the paper exactly:
//
//  1. Start from a candidate triple (p, S, T): closure actions p that
//     preserve S and T, an invariant S, and a fault-span T.
//  2. Partition S into constraints that can each be independently checked
//     and established; S is the conjunction of the constraints with T.
//  3. For each constraint c, design a convergence action
//     "¬c -> establish c while preserving T".
//  4. Validate convergence via the constraint graph using the sufficient
//     conditions of Theorems 1-3 (internal/ctheory), or exactly via the
//     model checker (internal/verify).
//
// A Design bundles the triple; Builder constructs one incrementally.
package core

import (
	"context"
	"fmt"

	"nonmask/internal/constraint"
	"nonmask/internal/ctheory"
	"nonmask/internal/program"
	"nonmask/internal/verify"
)

// Design is a completed candidate triple with its constraint decomposition:
// the paper's (p ∪ q, S, T) where p is the closure actions and q the
// convergence actions attached to the constraints.
type Design struct {
	// Name identifies the design in reports.
	Name string
	// Schema declares the program's variables.
	Schema *program.Schema
	// Closure holds the closure actions (the candidate program p).
	Closure []*program.Action
	// Set holds the constraints of S with their convergence actions.
	Set *constraint.Set
	// T is the fault-span. For stabilizing designs T is true.
	T *program.Predicate
	// S is the invariant: the conjunction of the constraints with T.
	S *program.Predicate
}

// Builder constructs a Design incrementally.
type Builder struct {
	name    string
	schema  *program.Schema
	closure []*program.Action
	set     *constraint.Set
	t       *program.Predicate
	err     error
}

// NewDesign starts a design with a fresh schema.
func NewDesign(name string) *Builder {
	return NewDesignWithSchema(name, program.NewSchema())
}

// NewDesignWithSchema starts a design over an existing schema (used by
// front ends such as internal/gcl that declare variables before building
// the design).
func NewDesignWithSchema(name string, schema *program.Schema) *Builder {
	return &Builder{
		name:   name,
		schema: schema,
		set:    constraint.NewSet(),
		t:      program.True(),
	}
}

// Schema exposes the design's schema for variable declaration.
func (b *Builder) Schema() *program.Schema { return b.schema }

// FaultSpan sets T. Unset means true (stabilizing design).
func (b *Builder) FaultSpan(t *program.Predicate) *Builder {
	b.t = t
	return b
}

// Closure adds closure actions. Their Kind must be program.Closure.
func (b *Builder) Closure(actions ...*program.Action) *Builder {
	for _, a := range actions {
		if a.Kind != program.Closure {
			b.fail(fmt.Errorf("core: action %q has kind %s, want closure", a.Name, a.Kind))
			return b
		}
		b.closure = append(b.closure, a)
	}
	return b
}

// Constraint adds one constraint of S with its convergence action at the
// given layer (0 for single-layer designs).
func (b *Builder) Constraint(layer int, pred *program.Predicate, conv *program.Action) *Builder {
	if conv != nil && conv.Kind != program.Convergence {
		b.fail(fmt.Errorf("core: action %q has kind %s, want convergence", conv.Name, conv.Kind))
		return b
	}
	b.set.Add(&constraint.Constraint{Pred: pred, Action: conv, Layer: layer})
	return b
}

// Target declares the S-conjunct a layer establishes when it is weaker than
// the conjunction of the layer's constraints (see constraint.LayerTarget;
// the paper's token ring uses this for its second conjunct).
func (b *Builder) Target(layer int, target *program.Predicate) *Builder {
	b.set.SetTarget(layer, target)
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build finalizes the design. It validates structure (nonempty schema and
// constraint set, well-typed actions) and computes S = T ∧ constraints.
func (b *Builder) Build() (*Design, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.schema.Len() == 0 {
		return nil, fmt.Errorf("core: design %q declares no variables", b.name)
	}
	if err := b.set.Validate(); err != nil {
		return nil, fmt.Errorf("core: design %q: %w", b.name, err)
	}
	d := &Design{
		Name:    b.name,
		Schema:  b.schema,
		Closure: b.closure,
		Set:     b.set,
		T:       b.t,
	}
	conj := b.set.TargetConjunction("")
	d.S = program.And("S("+b.name+")", b.t, conj)
	// Sanity-check the assembled programs.
	if err := d.TolerantProgram().Validate(); err != nil {
		return nil, fmt.Errorf("core: design %q: %w", b.name, err)
	}
	return d, nil
}

// ClosureProgram returns the candidate program p (closure actions only).
func (d *Design) ClosureProgram() *program.Program {
	p := program.New(d.Name+"/closure", d.Schema)
	p.Add(d.Closure...)
	return p
}

// TolerantProgram returns the augmented program p ∪ q: closure actions
// followed by all convergence actions.
func (d *Design) TolerantProgram() *program.Program {
	p := program.New(d.Name, d.Schema)
	p.Add(d.Closure...)
	p.Add(d.Set.ConvergenceActions()...)
	return p
}

// TheoryInput converts the design for the theorem checkers.
func (d *Design) TheoryInput(strategy verify.Strategy, opts verify.Options) *ctheory.Input {
	return &ctheory.Input{
		Closure:  d.Closure,
		T:        d.T,
		Set:      d.Set,
		Schema:   d.Schema,
		Strategy: strategy,
		Opts:     opts,
	}
}

// Validate runs the paper's sufficient conditions (Theorems 1, 2, 3 in
// order) and returns the first applicable report, plus every report tried.
func (d *Design) Validate(strategy verify.Strategy, opts verify.Options) (*ctheory.Report, []*ctheory.Report, error) {
	return ctheory.Validate(d.TheoryInput(strategy, opts))
}

// VerifyResult bundles the exact model-checking verdicts for a design.
type VerifyResult struct {
	// Closure is nil when S and T are closed in the tolerant program.
	Closure *verify.ClosureViolation
	// Unfair is the convergence verdict under the arbitrary daemon.
	Unfair *verify.ConvergenceResult
	// FairOnly is set when unfair convergence fails; it reports whether
	// the weaker, fair-daemon convergence holds instead.
	FairOnly *verify.ConvergenceResult
	// Classification is masking or nonmasking (Section 3).
	Classification verify.Classification
	// Report is the underlying verify.Check report, carrying the
	// enumerated space, timing, and effective options. Close it when done:
	// on the spill tier its space holds mapped segment files until then.
	Report *verify.Report
}

// Tolerant reports whether the design met the paper's definition: closure
// plus convergence (under the fair daemon at least).
func (r *VerifyResult) Tolerant() bool {
	if r.Closure != nil {
		return false
	}
	if r.Unfair.Converges {
		return true
	}
	return r.FairOnly != nil && r.FairOnly.Converges
}

// Verify model-checks the design exactly: closure of S and T, convergence
// under the arbitrary daemon, and — when that fails — convergence under the
// fair daemon. Only feasible for enumerable instances.
func (d *Design) Verify(opts verify.Options) (*VerifyResult, error) {
	return d.VerifyContext(context.Background(), verify.WithOptions(opts))
}

// VerifyContext model-checks the design through verify.Check with
// cancellation and functional options (WithWorkers, WithMaxStates,
// WithDeadline, ...).
func (d *Design) VerifyContext(ctx context.Context, options ...verify.Option) (*VerifyResult, error) {
	rep, err := verify.Check(ctx, d.TolerantProgram(), d.S, d.T, options...)
	if err != nil {
		return nil, err
	}
	return &VerifyResult{
		Closure:        rep.Closure,
		Unfair:         rep.Unfair,
		FairOnly:       rep.Fair,
		Classification: rep.Classification,
		Report:         rep,
	}, nil
}

// Space builds the design's verification space for custom checks.
func (d *Design) Space(opts verify.Options) (*verify.Space, error) {
	return verify.NewSpaceContext(context.Background(), d.TolerantProgram(), d.S, d.T, opts)
}
