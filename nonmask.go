package nonmask

import (
	"nonmask/internal/constraint"
	"nonmask/internal/core"
	"nonmask/internal/ctheory"
	"nonmask/internal/daemon"
	"nonmask/internal/fault"
	"nonmask/internal/gcl"
	"nonmask/internal/metrics"
	"nonmask/internal/program"
	"nonmask/internal/sim"
	"nonmask/internal/verify"
)

// Program model (internal/program).
type (
	// Domain is a finite variable domain: bool, integer range, or enum.
	Domain = program.Domain
	// DomainKind discriminates domain shapes.
	DomainKind = program.DomainKind
	// VarID identifies a declared variable.
	VarID = program.VarID
	// VarSpec is one variable declaration.
	VarSpec = program.VarSpec
	// Schema is a program's variable table.
	Schema = program.Schema
	// State assigns a value to every variable.
	State = program.State
	// Predicate is a named state predicate.
	Predicate = program.Predicate
	// Action is one guarded command.
	Action = program.Action
	// ActionKind distinguishes closure, convergence and fault actions.
	ActionKind = program.ActionKind
	// Program is a finite set of variables and actions.
	Program = program.Program
)

// Action kinds (paper Section 3).
const (
	// Closure actions perform the intended computation when S holds.
	Closure = program.Closure
	// Convergence actions reestablish violated constraints.
	Convergence = program.Convergence
	// Fault actions represent the faults themselves.
	Fault = program.Fault
)

// Domain constructors.
var (
	// Bool returns the boolean domain.
	Bool = program.Bool
	// IntRange returns the integer domain min..max.
	IntRange = program.IntRange
	// Enum returns a labeled finite domain.
	Enum = program.Enum
)

// Schema and model constructors.
var (
	// NewSchema returns an empty variable table.
	NewSchema = program.NewSchema
	// NewPredicate builds a named predicate with a declared support.
	NewPredicate = program.NewPredicate
	// NewAction builds a guarded command with a declared footprint. The
	// checker trusts the declared reads (a guard is re-evaluated only when
	// one of them changes) and verifies the declared writes.
	NewAction = program.NewAction
	// NewProgram returns an empty program over a schema.
	NewProgram = program.New
	// True is the constant-true predicate (the stabilizing fault-span).
	True = program.True
	// False is the constant-false predicate.
	False = program.False
	// And conjoins predicates.
	And = program.And
	// Or disjoins predicates.
	Or = program.Or
	// Not negates a predicate.
	Not = program.Not
	// RandomState draws a uniformly random state.
	RandomState = program.RandomState
)

// Design method (internal/core, internal/constraint, internal/ctheory).
type (
	// Design is a candidate triple (p, S, T) with its constraint
	// decomposition and convergence actions.
	Design = core.Design
	// DesignBuilder constructs a Design incrementally.
	DesignBuilder = core.Builder
	// Constraint pairs one conjunct of S with its convergence action.
	Constraint = constraint.Constraint
	// ConstraintSet is an ordered, layered collection of constraints.
	ConstraintSet = constraint.Set
	// ConstraintGraph is the Section 4 interference graph.
	ConstraintGraph = constraint.Graph
	// TheoremID names one of the paper's sufficient conditions.
	TheoremID = ctheory.TheoremID
	// TheoremReport is the outcome of checking a theorem's antecedents.
	TheoremReport = ctheory.Report
	// VerifyResult bundles exact model-checking verdicts for a design.
	VerifyResult = core.VerifyResult
)

// The paper's theorems.
const (
	// Theorem1 covers out-tree constraint graphs (Section 5).
	Theorem1 = ctheory.Theorem1
	// Theorem2 covers self-looping graphs with linear orders (Section 6).
	Theorem2 = ctheory.Theorem2
	// Theorem3 covers layered partitions (Section 7).
	Theorem3 = ctheory.Theorem3
)

// Design constructors.
var (
	// NewDesign starts a design with a fresh schema.
	NewDesign = core.NewDesign
	// NewDesignWithSchema starts a design over an existing schema.
	NewDesignWithSchema = core.NewDesignWithSchema
	// BuildConstraintGraph constructs the Section 4 constraint graph.
	BuildConstraintGraph = constraint.BuildGraph
)

// Verification (internal/verify).
type (
	// VerifyOptions configures the checker: state cap, worker count,
	// strategy, deadline.
	VerifyOptions = verify.Options
	// VerifyOption is a functional option for Check.
	VerifyOption = verify.Option
	// Report bundles everything Check decides about a candidate triple.
	Report = verify.Report
	// Space is an enumerated state space with S/T membership.
	Space = verify.Space
	// ConvergenceResult reports a convergence verdict with witnesses.
	ConvergenceResult = verify.ConvergenceResult
	// ClosureViolation is a step escaping a closed predicate.
	ClosureViolation = verify.ClosureViolation
	// PreserveResult reports a preservation verdict.
	PreserveResult = verify.PreserveResult
	// Strategy selects exhaustive or projected preservation checking.
	Strategy = verify.Strategy
	// Classification is masking vs nonmasking (Section 3).
	Classification = verify.Classification
	// SpanResult is a computed fault-span.
	SpanResult = verify.SpanResult
)

// Verification strategies and classifications.
const (
	// Exhaustive enumerates the full state space.
	Exhaustive = verify.Exhaustive
	// Projected enumerates only footprints and supports.
	Projected = verify.Projected
	// Masking means S = T.
	Masking = verify.Masking
	// Nonmasking means S is a strict subset of T.
	Nonmasking = verify.Nonmasking
)

// Verification entry points.
var (
	// Check is the unified verification entry point: enumeration, closure,
	// convergence under both daemons, and classification in one call,
	// configured by functional options and cancellable by context.
	Check = verify.Check
	// WithWorkers shards the checker's passes across n goroutines.
	WithWorkers = verify.WithWorkers
	// WithMaxStates caps the enumerated state space.
	WithMaxStates = verify.WithMaxStates
	// WithStrategy records the preservation strategy on the report.
	WithStrategy = verify.WithStrategy
	// WithDeadline bounds the wall-clock time of a Check call.
	WithDeadline = verify.WithDeadline
	// WithFaults makes Check compute the fault-span of the given fault
	// actions and use it as T.
	WithFaults = verify.WithFaults
	// WithMetrics makes Check additionally run the quantitative
	// tolerance-metrics passes (distance profile, worst/expected
	// stabilization time, per-constraint recovery costs).
	WithMetrics = verify.WithMetrics
	// WithConstraints supplies the invariant conjuncts the metrics break
	// recovery costs down by.
	WithConstraints = verify.WithConstraints
)

// Tolerance metrics (internal/verify, DESIGN §10).
type (
	// ToleranceMetrics is the quantitative tolerance analysis attached to
	// Report.Metrics by WithMetrics.
	ToleranceMetrics = verify.ToleranceMetrics
	// ConstraintCost is one constraint's recovery cost.
	ConstraintCost = verify.ConstraintCost
	// ConstraintSpec names one invariant conjunct for the cost breakdown.
	ConstraintSpec = verify.ConstraintSpec
)

// Execution (internal/daemon, internal/fault, internal/sim).
type (
	// Daemon schedules enabled actions.
	Daemon = daemon.Daemon
	// Injector perturbs states to model faults.
	Injector = fault.Injector
	// FaultSchedule lists timed injections for simulation runs.
	FaultSchedule = fault.Schedule
	// FaultEvent is one scheduled injection.
	FaultEvent = fault.Event
	// Runner drives a program under a daemon with fault injection.
	Runner = sim.Runner
	// RunResult describes one simulation run.
	RunResult = sim.Result
	// Batch aggregates many runs.
	Batch = sim.Batch
	// Trace records a run's state sequence.
	Trace = sim.Trace
	// SyncResult reports an exhaustive synchronous-daemon analysis.
	SyncResult = sim.SyncResult
	// LeadsToResult reports a progress (leads-to) verdict.
	LeadsToResult = verify.LeadsToResult
	// StairResult reports a convergence-stair verification.
	StairResult = verify.StairResult
	// VariantViolation is a step on which a claimed variant fails.
	VariantViolation = verify.VariantViolation
	// CorruptVars randomizes K variables per injection.
	CorruptVars = fault.CorruptVars
	// CorruptGroups randomizes the variables of K groups (nodes).
	CorruptGroups = fault.CorruptGroups
	// ResetTo restores variables to a snapshot.
	ResetTo = fault.ResetTo
)

// Daemon constructors.
var (
	// NewRoundRobin cycles through actions in program order (weakly fair).
	NewRoundRobin = daemon.NewRoundRobin
	// NewRandomDaemon picks uniformly among enabled actions.
	NewRandomDaemon = daemon.NewRandom
	// NewAdversarialDaemon greedily maximizes a metric (unfair).
	NewAdversarialDaemon = daemon.NewAdversarial
	// ViolationMetric counts violated predicates, for adversaries at scale.
	ViolationMetric = daemon.ViolationMetric
	// FaultActions represents per-variable corruption as fault actions.
	FaultActions = fault.Actions
	// RandomStates draws arbitrary initial states for stabilization runs.
	RandomStates = sim.RandomStates
	// CorruptedStates perturbs a good state with an injector.
	CorruptedStates = sim.CorruptedStates
	// SyncStep executes one fully synchronous round.
	SyncStep = sim.SyncStep
	// SyncExhaustive decides stabilization under the synchronous daemon.
	SyncExhaustive = sim.SyncExhaustive
)

// GCL front end (internal/gcl).
type (
	// GCLModule is a compiled guarded-command source file.
	GCLModule = gcl.Module
	// GCLFile is a parsed guarded-command source file.
	GCLFile = gcl.File
)

// GCL entry points.
var (
	// LoadGCL parses and compiles guarded-command source.
	LoadGCL = gcl.Load
	// ParseGCL parses guarded-command source.
	ParseGCL = gcl.Parse
	// PrintGCL renders a parsed file back to source.
	PrintGCL = gcl.Print
)

// Reporting (internal/metrics).
type (
	// Table renders fixed-width experiment tables.
	Table = metrics.Table
	// Summary holds order statistics over a sample.
	Summary = metrics.Summary
)

// Reporting constructors.
var (
	// NewTable returns a table with a title and column headers.
	NewTable = metrics.NewTable
	// Summarize computes order statistics.
	Summarize = metrics.Summarize
)
