package verify

import (
	"fmt"
	"runtime"
	"time"

	"nonmask/internal/obs"
	"nonmask/internal/program"
)

// DefaultMaxStates bounds full-space enumeration. The packed bitsets and
// int32 successor tables keep per-state bookkeeping small enough that
// 1<<26 states costs a few hundred megabytes; the seed checker's []bool
// bookkeeping capped out at 1<<22.
const DefaultMaxStates = int64(1) << 26

// SpaceMode selects how the state space is represented (DESIGN §13): the
// scaling ladder from in-RAM full product, through symmetry quotients, to
// disk-spilled CSR segments.
type SpaceMode int

const (
	// SpaceAuto (the default) engages the ladder automatically: the full
	// in-RAM representation when the CSR fits its memory budget, the
	// symmetry quotient when one is advertised and the full CSR does not
	// fit, and the spill tier (in SpillDir, or the OS temp dir) when
	// nothing smaller fits.
	SpaceAuto SpaceMode = iota
	// SpaceFull forces the classic full-product representation. A CSR
	// over the in-RAM budget is refused, never quotiented or spilled.
	SpaceFull
	// SpaceQuotient forces symmetry reduction: enumeration, the CSR and
	// every pass run on canonical orbit representatives. Requires a
	// Symmetry (WithSymmetry or a registry advertisement).
	SpaceQuotient
	// SpaceSpill forces disk-backed operation: the forward and reverse CSR
	// are written as segment files and mmap'd read-only, and oversized BFS
	// frontiers overflow to sorted temp-file runs.
	SpaceSpill
)

// String returns the mode's flag spelling.
func (m SpaceMode) String() string {
	switch m {
	case SpaceAuto:
		return "auto"
	case SpaceFull:
		return "full"
	case SpaceQuotient:
		return "quotient"
	case SpaceSpill:
		return "spill"
	}
	return fmt.Sprintf("SpaceMode(%d)", int(m))
}

// ParseSpaceMode parses the -space-mode flag / job-option spelling. The
// empty string means SpaceAuto.
func ParseSpaceMode(s string) (SpaceMode, error) {
	switch s {
	case "", "auto":
		return SpaceAuto, nil
	case "full":
		return SpaceFull, nil
	case "quotient":
		return SpaceQuotient, nil
	case "spill":
		return SpaceSpill, nil
	}
	return 0, fmt.Errorf("verify: unknown space mode %q (want auto | full | quotient | spill)", s)
}

// QuotientMap selects the canonical-state lookup structure of the
// quotient tier.
type QuotientMap int

const (
	// MapFingerprint (the default) looks representatives up through an
	// open-addressed table of 64-bit state fingerprints. A fingerprint
	// collision between two distinct representatives is detected at build
	// time and makes the check refuse with a report naming both states —
	// never a silent wrong verdict.
	MapFingerprint QuotientMap = iota
	// MapExact looks representatives up by binary search over the sorted
	// representative index list: no hashing, no collision risk, O(log n)
	// per lookup. The metamorphic suites cross-check the two.
	MapExact
)

// String returns the map's flag spelling.
func (m QuotientMap) String() string {
	if m == MapExact {
		return "exact"
	}
	return "fingerprint"
}

// ParseQuotientMap parses the -quotient-map flag spelling.
func ParseQuotientMap(s string) (QuotientMap, error) {
	switch s {
	case "", "fingerprint":
		return MapFingerprint, nil
	case "exact":
		return MapExact, nil
	}
	return 0, fmt.Errorf("verify: unknown quotient map %q (want fingerprint | exact)", s)
}

// Options configures the checker. The zero value is ready to use: default
// state cap, one worker per CPU, projected preservation strategy, no
// deadline.
type Options struct {
	// MaxStates caps the size of the enumerated state space. Zero means
	// DefaultMaxStates (the zero-means-default convention used throughout
	// this package); negative values are rejected with an error by every
	// entry point rather than silently treated as the default.
	MaxStates int64
	// Workers is the number of goroutines sharding state enumeration and
	// the backward fixpoint passes. Zero means runtime.NumCPU(); one runs
	// every pass sequentially on the calling goroutine. Workers > 1
	// requires what the program model already promises: action guards,
	// bodies, and predicate Eval functions must be pure (no mutation of
	// shared state), since they are called concurrently.
	Workers int
	// Strategy selects how preservation facts are decided (Preserves,
	// CheckEstablishes). Zero means Projected.
	Strategy Strategy
	// Deadline, when positive, bounds the wall-clock time of a Check call;
	// it is applied as a context timeout on top of the caller's context.
	Deadline time.Duration
	// Tracer, when non-nil, receives one span per verifier pass (see the
	// Pass* constants and DESIGN §8). Check always collects spans onto
	// Report.Passes regardless; the tracer is the live event stream.
	// Implementations must be safe for concurrent use.
	Tracer obs.Tracer
	// Progress, when non-nil, is bumped by the sharded hot loops once per
	// work chunk and reset at pass boundaries; sample it from another
	// goroutine with Progress.Watch. Nil costs the loops one nil-check.
	Progress *obs.Progress
	// Metrics makes Check additionally run the quantitative
	// tolerance-metrics passes (distance profile, worst/expected
	// stabilization time, per-constraint recovery costs) and attach the
	// result to Report.Metrics. Off by default: the verdict path pays
	// nothing for the plumbing.
	Metrics bool
	// SpaceMode selects the state-space representation tier (DESIGN §13).
	// Zero (SpaceAuto) engages the ladder automatically.
	SpaceMode SpaceMode
	// Symmetry, when non-nil, is the canonicalization hook the quotient
	// tier reduces by. Registry entries advertise one per symmetric
	// protocol; it is ignored outside the quotient tier.
	Symmetry *Symmetry
	// QuotientMap selects the representative lookup structure of the
	// quotient tier (fingerprint table by default).
	QuotientMap QuotientMap
	// SpillDir is the directory the spill tier writes CSR segment files
	// and frontier runs into, whether SpaceSpill forces the tier or
	// SpaceAuto escalates to it. Empty means os.TempDir().
	SpillDir string
}

// validate rejects malformed options. Every entry point of this package
// calls it, so a negative MaxStates fails loudly instead of silently
// falling back to the default (the seed behaviour).
func (o Options) validate() error {
	if o.MaxStates < 0 {
		return fmt.Errorf("verify: negative MaxStates %d (use 0 for the default %d)",
			o.MaxStates, DefaultMaxStates)
	}
	if o.Workers < 0 {
		return fmt.Errorf("verify: negative Workers %d (use 0 for runtime.NumCPU)", o.Workers)
	}
	if o.Deadline < 0 {
		return fmt.Errorf("verify: negative Deadline %v", o.Deadline)
	}
	if o.SpaceMode < SpaceAuto || o.SpaceMode > SpaceSpill {
		return fmt.Errorf("verify: unknown SpaceMode %d", int(o.SpaceMode))
	}
	if o.QuotientMap < MapFingerprint || o.QuotientMap > MapExact {
		return fmt.Errorf("verify: unknown QuotientMap %d", int(o.QuotientMap))
	}
	if o.SpaceMode == SpaceQuotient && o.Symmetry == nil {
		return fmt.Errorf("verify: SpaceQuotient requires a Symmetry (the instance advertises none)")
	}
	return nil
}

func (o Options) maxStates() int64 {
	if o.MaxStates <= 0 {
		return DefaultMaxStates
	}
	return o.MaxStates
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

func (o Options) strategy() Strategy {
	if o.Strategy == 0 {
		return Projected
	}
	return o.Strategy
}

// Option is a functional option for Check, the package's unified entry
// point. Options compose left to right; later options win.
type Option func(*Options, *checkExtras)

// checkExtras holds Check-only configuration that does not belong on the
// Options struct shared with the legacy entry points.
type checkExtras struct {
	faults      []*program.Action
	constraints []ConstraintSpec
}

// WithWorkers shards enumeration and fixpoint passes across n goroutines.
// n == 1 forces the sequential path; n == 0 restores the default
// (runtime.NumCPU()).
func WithWorkers(n int) Option {
	return func(o *Options, _ *checkExtras) { o.Workers = n }
}

// WithMaxStates caps the enumerated state space at n states. n == 0
// restores the default (DefaultMaxStates); negative values make Check
// fail with an error.
func WithMaxStates(n int64) Option {
	return func(o *Options, _ *checkExtras) { o.MaxStates = n }
}

// WithStrategy selects the preservation-checking strategy recorded on the
// report's options (Exhaustive or Projected), for callers that feed the
// same option set into the theorem validators.
func WithStrategy(s Strategy) Option {
	return func(o *Options, _ *checkExtras) { o.Strategy = s }
}

// WithDeadline bounds the wall-clock time of the whole Check call. The
// deadline is implemented as a context timeout, so a Check that exceeds
// it returns context.DeadlineExceeded from whichever pass was running.
func WithDeadline(d time.Duration) Option {
	return func(o *Options, _ *checkExtras) { o.Deadline = d }
}

// WithTracer streams one span per verifier pass to t (in addition to the
// Report.Passes record Check always keeps). Pass nil to restore the
// default (no live stream).
func WithTracer(t obs.Tracer) Option {
	return func(o *Options, _ *checkExtras) { o.Tracer = t }
}

// WithProgress attaches a live progress counter: the sharded hot loops
// bump p once per chunk and reset it at pass boundaries, so a watcher
// goroutine (p.Watch) can render a live "pass X, N of M states" ticker.
func WithProgress(p *obs.Progress) Option {
	return func(o *Options, _ *checkExtras) { o.Progress = p }
}

// WithFaults makes Check compute the fault-span of the given fault
// actions from S and use it as the tolerance specification T (overriding
// the T argument): the paper's "smallest closed fault-span containing the
// invariant". This folds the old two-call FaultSpan + NewSpace dance into
// the single Check entry point.
func WithFaults(faults ...*program.Action) Option {
	return func(_ *Options, e *checkExtras) { e.faults = faults }
}

// WithMetrics makes Check run the quantitative tolerance-metrics passes
// after the verdict passes and attach a ToleranceMetrics to the report.
// Combine with WithConstraints for the per-constraint cost breakdown.
func WithMetrics() Option {
	return func(o *Options, _ *checkExtras) { o.Metrics = true }
}

// WithConstraints supplies the invariant conjuncts the metrics passes
// break recovery costs down by. It has no effect unless WithMetrics (or
// Options.Metrics) is also set.
func WithConstraints(specs ...ConstraintSpec) Option {
	return func(_ *Options, e *checkExtras) { e.constraints = specs }
}

// WithSpaceMode selects the state-space representation tier (DESIGN §13):
// SpaceAuto engages the full → quotient → spill ladder automatically as
// instances outgrow each tier; the explicit modes force one tier.
func WithSpaceMode(m SpaceMode) Option {
	return func(o *Options, _ *checkExtras) { o.SpaceMode = m }
}

// WithSymmetry supplies the canonicalization hook the quotient tier
// reduces the space by. Registry instances carry their advertised
// symmetry; hand-built programs can pass their own. Pass nil to clear.
func WithSymmetry(sym *Symmetry) Option {
	return func(o *Options, _ *checkExtras) { o.Symmetry = sym }
}

// WithQuotientMap selects the quotient tier's representative lookup
// structure: the 64-bit fingerprint table (default, collision-refusing)
// or the exact binary search.
func WithQuotientMap(m QuotientMap) Option {
	return func(o *Options, _ *checkExtras) { o.QuotientMap = m }
}

// WithSpillDir sets the directory the spill tier writes CSR segments and
// frontier runs into (os.TempDir() when unset).
func WithSpillDir(dir string) Option {
	return func(o *Options, _ *checkExtras) { o.SpillDir = dir }
}

// WithOptions replaces the whole Options struct — the bridge for callers
// holding a legacy Options value.
func WithOptions(o Options) Option {
	return func(dst *Options, _ *checkExtras) { *dst = o }
}

// buildOptions folds functional options into an Options + extras pair.
func buildOptions(options []Option) (Options, checkExtras) {
	var (
		o Options
		e checkExtras
	)
	for _, opt := range options {
		opt(&o, &e)
	}
	return o, e
}
