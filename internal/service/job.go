package service

import (
	"context"
	"fmt"
	"time"

	"nonmask/internal/constraint"
	"nonmask/internal/core"
	"nonmask/internal/gcl"
	"nonmask/internal/obs"
	"nonmask/internal/program"
	"nonmask/internal/protocols/registry"
	"nonmask/internal/saboteur"
	"nonmask/internal/verify"
)

// JobSpec is the submission payload of POST /v1/jobs. Exactly one of
// Source (GCL program text) or Protocol (catalog name, with Params) must
// be set.
type JobSpec struct {
	// Source is a guarded-command program in the paper's Section 2
	// notation, as accepted by internal/gcl.
	Source string `json:"source,omitempty"`
	// Protocol names a built-in catalog instance (see GET /v1/protocols).
	Protocol string `json:"protocol,omitempty"`
	// Params sizes the catalog instance; defaults are filled per protocol.
	Params registry.Params `json:"params,omitempty"`
	// Options tunes the check.
	Options JobOptions `json:"options,omitempty"`
}

// JobOptions is the wire form of the checker options a job may set.
type JobOptions struct {
	// Workers shards the checker's passes (0 = all CPUs).
	Workers int `json:"workers,omitempty"`
	// MaxStates caps the enumerated state space (0 = server default).
	MaxStates int64 `json:"max_states,omitempty"`
	// Strategy is "projected" (default) or "exhaustive".
	Strategy string `json:"strategy,omitempty"`
	// DeadlineMS bounds the check's wall-clock time in milliseconds
	// (0 = server default; capped at the server's maximum).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// SpaceMode pins the state-space tier: "auto" (default — escalate from
	// the full product to a symmetry quotient to disk spill as the instance
	// outgrows RAM), "full", "quotient", or "spill". "full" and "quotient"
	// refuse an instance whose CSR exceeds the in-RAM budget. "quotient"
	// requires a catalog instance that advertises a symmetry group and is
	// rejected for GCL source jobs, for saboteur jobs (the witness search
	// runs on the concrete graph) and for metrics jobs on layered designs
	// (per-constraint recovery costs are not symmetry-invariant; see
	// registry.Instance).
	SpaceMode string `json:"space_mode,omitempty"`
	// Analyses selects what the job computes. "verdict" (the closure /
	// convergence / classification check) is always on and is the default
	// when the list is empty; adding "metrics" additionally runs the
	// quantitative tolerance analyses and attaches the result's "metrics"
	// block. Unknown analysis names are rejected at submission (400).
	Analyses []string `json:"analyses,omitempty"`
	// Saboteur, when set, runs the adversarial fault-schedule search
	// after the check and attaches the result's "saboteur" block with a
	// replayable witness. Requires an enumerable instance; non-enumerable
	// submissions are rejected with 400 naming the advertised bound.
	Saboteur *SaboteurOptions `json:"saboteur,omitempty"`
	// Priority is the admission class: "" or "normal" (default), or
	// "high". High-priority jobs go to a queue executors drain first, so
	// they preempt queue *order* — running checks are never interrupted.
	// Priority does not enter the content-address: the verdict is the
	// same either way, so both classes share cache entries.
	Priority string `json:"priority,omitempty"`
}

// SaboteurOptions is the wire form of the saboteur search knobs
// (internal/saboteur.Options).
type SaboteurOptions struct {
	// K is the fault budget, in [1, 16].
	K int `json:"k"`
	// Objective is "recovery" (default) or "escape".
	Objective string `json:"objective,omitempty"`
	// Budget caps product-graph node expansions (0 = engine default).
	Budget int64 `json:"budget,omitempty"`
}

// engineOptions validates the wire block and resolves the engine's
// defaults, so submissions fail with 400 on a bad fault budget or
// objective and the cache key sees one canonical spelling.
func (o *SaboteurOptions) engineOptions() (*saboteur.Options, error) {
	so, err := saboteur.Options{K: o.K, Objective: o.Objective, Budget: o.Budget}.Normalized()
	if err != nil {
		return nil, err
	}
	return &so, nil
}

// Analysis names accepted in JobOptions.Analyses.
const (
	// AnalysisVerdict is the boolean closure/convergence check; always
	// computed, listing it is allowed but redundant.
	AnalysisVerdict = "verdict"
	// AnalysisMetrics adds the quantitative tolerance metrics: distance
	// profile, worst/expected stabilization times, per-constraint costs.
	AnalysisMetrics = "metrics"
)

// JobState enumerates a job's lifecycle.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Terminal reports whether the state is final — exported for stream
// consumers deciding when a job's event feed is complete.
func (s JobState) Terminal() bool { return s.terminal() }

// JobStatus is the wire form of a job returned by the submission and
// status endpoints.
type JobStatus struct {
	// ID addresses the job in GET /v1/jobs/{id}.
	ID string `json:"id"`
	// State is the lifecycle state.
	State JobState `json:"state"`
	// Key is the job's content-address (cache fingerprint).
	Key string `json:"key"`
	// Program is the compiled program's name.
	Program string `json:"program"`
	// Cached reports that the result was served from the cache without a
	// fresh check.
	Cached bool `json:"cached,omitempty"`
	// Coalesced reports that the submission attached to an identical
	// in-flight job instead of running its own check; the result (when
	// terminal) is the leader's.
	Coalesced bool `json:"coalesced,omitempty"`
	// Node names the cluster node holding this job record (empty on a
	// single-node server). Forwarded submissions return the owner's node.
	Node string `json:"node,omitempty"`
	// Tenant is the principal the job is accounted to (empty without
	// bearer-token auth).
	Tenant string `json:"tenant,omitempty"`
	// Error is the failure detail when State is "failed".
	Error string `json:"error,omitempty"`
	// Result is the verdict when State is "done".
	Result *Result `json:"result,omitempty"`
	// SubmittedAt stamps admission.
	SubmittedAt time.Time `json:"submitted_at"`
	// FinishedAt stamps the terminal transition (zero until then).
	FinishedAt time.Time `json:"finished_at"`
}

// Compiled is a validated, runnable job payload: the checkable triple plus
// its content-address and effective options. Compilation (GCL parse/compile
// or catalog build) happens synchronously at submission so malformed jobs
// fail with 400 instead of occupying the queue. The CLIs compile their
// flags through the same Compile and check through the same Run, so a
// front end cannot drift from the service's option parsing or its
// quotient soundness policy.
type Compiled struct {
	name string
	prog *program.Program
	s, t *program.Predicate
	key  string
	opts verify.Options
	// constraints are the invariant conjuncts the metrics analyses break
	// recovery costs down by (empty without a layered design or stair).
	constraints []verify.ConstraintSpec
	// design is the layered candidate triple the theorems validate (nil
	// for plain programs) and stair the declared convergence stair; only
	// the CLIs' prose reports read them.
	design *core.Design
	stair  []*program.Predicate
	// protocol and params identify a catalog job for batch curve
	// aggregation (empty/zero for GCL source jobs).
	protocol string
	params   registry.Params
	// saboteur is the normalized adversarial-search request, nil for
	// verdict-only jobs.
	saboteur *saboteur.Options
	// spec is the submission as received, retained so a cluster node can
	// forward it to the owner verbatim (same spec → same fingerprint).
	spec JobSpec
	// priority routes the job to the high-priority queue.
	priority bool
	// tenant is the principal the job is accounted to ("" untenanted).
	tenant string
}

// Name is the compiled program's name.
func (c *Compiled) Name() string { return c.name }

// Key is the job's content-address, the key of the result cache and of
// every persistent verdict store.
func (c *Compiled) Key() string { return c.key }

// Program is the program the job checks.
func (c *Compiled) Program() *program.Program { return c.prog }

// Options are the effective checker options, defaults resolved.
func (c *Compiled) Options() verify.Options { return c.opts }

// Constraints are the per-constraint cost specs the metrics break
// recovery down by.
func (c *Compiled) Constraints() []verify.ConstraintSpec { return c.constraints }

// Design is the layered candidate triple, nil for plain programs.
func (c *Compiled) Design() *core.Design { return c.design }

// Stair is the declared convergence stair, outermost first.
func (c *Compiled) Stair() []*program.Predicate { return c.stair }

// WithoutSymmetry returns a copy that checks the concrete space, for
// reports that evaluate node-indexed predicates a symmetry group permutes.
// Dropping the group is always sound; only the quotient tier is lost.
func (c *Compiled) WithoutSymmetry() *Compiled {
	cp := *c
	cp.opts.Symmetry = nil
	return &cp
}

// verifyOptions resolves wire options against server defaults. It is the
// one place the zero-means-default state cap is resolved.
func (o JobOptions) verifyOptions(cfg Config) (verify.Options, error) {
	opts := verify.Options{Workers: o.Workers, MaxStates: o.MaxStates}
	if opts.Workers == 0 {
		opts.Workers = cfg.CheckWorkers
	}
	if opts.MaxStates == 0 {
		opts.MaxStates = cfg.MaxStates
	}
	if opts.MaxStates == 0 {
		opts.MaxStates = verify.DefaultMaxStates
	}
	switch o.Strategy {
	case "", "projected":
		opts.Strategy = verify.Projected
	case "exhaustive":
		opts.Strategy = verify.Exhaustive
	default:
		return opts, fmt.Errorf("unknown strategy %q (want projected | exhaustive)", o.Strategy)
	}
	deadline := time.Duration(o.DeadlineMS) * time.Millisecond
	if deadline <= 0 || (cfg.MaxDeadline > 0 && deadline > cfg.MaxDeadline) {
		deadline = cfg.MaxDeadline
	}
	opts.Deadline = deadline
	mode, err := verify.ParseSpaceMode(o.SpaceMode)
	if err != nil {
		return opts, err
	}
	opts.SpaceMode = mode
	// The spill directory is server policy, never client input: a job may
	// request the spill tier, but where segment and run files land is the
	// operator's -spill-dir.
	opts.SpillDir = cfg.SpillDir
	for _, a := range o.Analyses {
		switch a {
		case AnalysisVerdict:
			// Always computed.
		case AnalysisMetrics:
			opts.Metrics = true
		default:
			return opts, fmt.Errorf("unknown analysis %q (want %s | %s)",
				a, AnalysisVerdict, AnalysisMetrics)
		}
	}
	return opts, nil
}

// compileAdmitted is Compile behind the catalog's advertised parameter
// bounds. The bounds guard queue slots against instances that would only
// fail after waiting for an executor, so admission (single jobs and batch
// members) applies them; the CLIs occupy no slot and bypass them.
func compileAdmitted(spec JobSpec, cfg Config) (*Compiled, error) {
	if spec.Protocol != "" && spec.Source == "" {
		if err := registry.Validate(spec.Protocol, spec.Params); err != nil {
			return nil, err
		}
	}
	c, err := Compile(spec, cfg)
	if err == nil && testHookCompiled != nil {
		testHookCompiled(c)
	}
	return c, err
}

// testHookCompiled, when non-nil, observes every program admission
// compiles; white-box tests use it to watch how long the programs live.
var testHookCompiled func(*Compiled)

// Compile validates and compiles a submission into a runnable job: the
// options, the triple, the saboteur request, the symmetry policy and the
// content key.
func Compile(spec JobSpec, cfg Config) (*Compiled, error) {
	opts, err := spec.Options.verifyOptions(cfg)
	if err != nil {
		return nil, err
	}
	if err := validateStaticOptions(opts); err != nil {
		return nil, err
	}
	c := &Compiled{opts: opts, spec: spec}
	if spec.Options.Saboteur != nil {
		if c.saboteur, err = spec.Options.Saboteur.engineOptions(); err != nil {
			return nil, err
		}
	}
	switch spec.Options.Priority {
	case "", "normal":
	case "high":
		c.priority = true
	default:
		return nil, fmt.Errorf("unknown priority %q (want normal | high)", spec.Options.Priority)
	}
	var sym *verify.Symmetry
	switch {
	case spec.Source != "" && spec.Protocol != "":
		return nil, fmt.Errorf("job sets both source and protocol; pick one")
	case spec.Source != "":
		file, err := gcl.Parse(spec.Source)
		if err != nil {
			return nil, fmt.Errorf("parse: %w", err)
		}
		m, err := gcl.Compile(file)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		if c.saboteur != nil {
			// The saboteur enumerates the full space; reject instances
			// over the effective cap at submission, like the catalog path.
			if count, ok := m.Program.Schema.StateCount(); !ok || count > opts.MaxStates {
				return nil, fmt.Errorf("saboteur requires an enumerable instance: %d states exceeds the advertised bound of %d states", count, opts.MaxStates)
			}
		}
		c.name, c.prog, c.s, c.t = m.Name, m.Program, m.S, m.T
		c.design = m.Design
		c.constraints = specsFromSet(m.Set)
		// Content-address the canonical pretty-printed form, so
		// formatting- or comment-only variations share a cache entry.
		c.key = fingerprintSource(gcl.Print(file), opts, c.saboteur)
	case spec.Protocol != "":
		params, err := registry.Normalize(spec.Protocol, spec.Params)
		if err != nil {
			return nil, err
		}
		if c.saboteur != nil {
			// The registry advertises which analyses each entry supports
			// and checks enumerability against the effective state cap;
			// its error names the advertised bound.
			if err := registry.ValidateAnalyses(spec.Protocol, params,
				[]string{registry.AnalysisSaboteur}, opts.MaxStates); err != nil {
				return nil, err
			}
		}
		inst, err := registry.Build(spec.Protocol, params)
		if err != nil {
			return nil, err
		}
		c.name, c.prog, c.s, c.t = inst.Name, inst.Program, inst.S, inst.T
		c.design, c.stair = inst.Design, inst.Stair
		c.constraints = registry.ConstraintSpecs(inst)
		c.protocol, c.params = spec.Protocol, params
		c.key = fingerprintProtocol(spec.Protocol, params, opts, c.saboteur)
		sym = inst.Symmetry
	default:
		return nil, fmt.Errorf("job sets neither source nor protocol")
	}
	// Attach the advertised symmetry group only to jobs the quotient is
	// sound for: the saboteur searches the concrete transition graph (its
	// witness must replay on real states), and the per-constraint recovery
	// costs of layered designs are permuted — not preserved — by the group
	// (registry.Instance documents the boundary). Auto mode silently stays
	// on the full/spill ladder for those; an explicit quotient request is
	// rejected with the reason. GCL sources advertise no group at all.
	switch {
	case c.saboteur != nil:
		if opts.SpaceMode == verify.SpaceQuotient {
			return nil, fmt.Errorf("space_mode=quotient is incompatible with the saboteur: the fault-schedule witness must replay on concrete states, not orbit representatives")
		}
		sym = nil
	case opts.Metrics && len(c.constraints) > 0:
		if opts.SpaceMode == verify.SpaceQuotient {
			return nil, fmt.Errorf("space_mode=quotient is incompatible with analyses=metrics on a layered design: per-constraint recovery costs are not symmetry-invariant; use space_mode=full or drop metrics")
		}
		sym = nil
	}
	if opts.SpaceMode == verify.SpaceQuotient && sym == nil {
		return nil, fmt.Errorf("%s advertises no symmetry group; space_mode=quotient needs a catalog protocol that does (GCL sources have none)", c.name)
	}
	c.opts.Symmetry = sym
	return c, nil
}

// Run checks the compiled triple and, for saboteur jobs, searches the
// worst k-fault schedule on the check's own space, stamping the catalog
// identity onto its witness. Pass spans go to tracer and live counts to
// progress (either may be nil); onImprove observes the search's
// incumbents. The caller closes the report, which may be non-nil even
// when err is not (a failed search).
func (c *Compiled) Run(ctx context.Context, tracer obs.Tracer, progress *obs.Progress,
	onImprove func(cost, faults int, expanded int64)) (*verify.Report, *saboteur.Result, error) {
	rep, err := verify.Check(ctx, c.prog, c.s, c.t,
		verify.WithOptions(c.opts), verify.WithConstraints(c.constraints...),
		verify.WithTracer(tracer), verify.WithProgress(progress))
	if err != nil || c.saboteur == nil {
		return rep, nil, err
	}
	// The search runs on the check's own space, so its pass span joins
	// the report's span collection (and the tracer) like any verifier pass.
	sopts := *c.saboteur
	sopts.OnImprove = onImprove
	sab, err := saboteur.Search(ctx, rep.Space, sopts)
	if err != nil {
		return rep, nil, err
	}
	if w := sab.Witness; w != nil && c.protocol != "" {
		// Stamp the catalog identity onto the witness so cssim -replay
		// can rebuild the instance from the file alone.
		w.Protocol = c.protocol
		params := c.params
		w.Params = &params
	}
	return rep, sab, nil
}

// Result renders a run as the wire result shared by the job API and the
// CLIs' -json: the report's verdict plus the saboteur block, if any.
func (c *Compiled) Result(rep *verify.Report, sab *saboteur.Result) *Result {
	res := ResultFromReport(c.name, rep)
	res.Saboteur = SaboteurResultFrom(sab)
	return res
}

// specsFromSet converts a compiled constraint decomposition into the
// metric engine's cost specs, in declaration order. Nil-safe: GCL modules
// without invariants (or with a bare program) yield no specs.
func specsFromSet(set *constraint.Set) []verify.ConstraintSpec {
	if set == nil {
		return nil
	}
	specs := make([]verify.ConstraintSpec, 0, len(set.Constraints))
	for _, c := range set.Constraints {
		specs = append(specs, verify.ConstraintSpec{Name: c.Pred.Name, Pred: c.Pred})
	}
	return specs
}

// validateStatic rejects option values that verify.Check would reject, so
// the error surfaces at submission (400) instead of execution (failed job).
func validateStaticOptions(o verify.Options) error {
	if o.MaxStates < 0 {
		return fmt.Errorf("negative max_states %d", o.MaxStates)
	}
	if o.Workers < 0 {
		return fmt.Errorf("negative workers %d", o.Workers)
	}
	return nil
}

// jobKind is how a job record reaches its terminal state. It is fixed
// when the record is created, before any reader can see it.
type jobKind uint8

const (
	// kindExecuted runs its own check on this node's queue.
	kindExecuted jobKind = iota
	// kindCached mirrors a verdict the cache already holds: its source is
	// terminal at admission, so it finishes synchronously.
	kindCached
	// kindCoalesced mirrors an identical executed job already in flight
	// on this node.
	kindCoalesced
	// kindMirrored mirrors a run of its spec on the key's owner node (a
	// batch member a peer owns), or the local job admitted in its place
	// when the owner is unreachable.
	kindMirrored
)

// outcome is a job's terminal state: what finish applies, and what a
// mirror copies from its source.
type outcome struct {
	state  JobState
	result *Result
	err    error
	// cached reports a verdict served from a cache, here or on the owner
	// node, without a fresh check.
	cached bool
}

// job is the server-side record of one submission. It never holds the
// submission's *Compiled: the program travels with the work that needs it
// (the queue entry and its executor, a mirror goroutine, a batch runner),
// so a record costs its header and its outcome, not its program.
type job struct {
	record
	// The header, fixed when the record is created: the content key, the
	// program name, the tenant and the catalog parameters the batch curve
	// reads (zero for GCL source jobs).
	key, name, tenant string
	n, k              int
	seed              int64
	kind              jobKind
	// node is the server's cluster node name.
	node string
	// quota is the tenant slot an executed record holds until finish
	// (nil when untenanted).
	quota *Tenant

	// Guarded by record.mu. state runs queued → running (executed records
	// only) → terminal, and the rest of the outcome is set with the
	// terminal state.
	outcome
	// cancel interrupts a running check, or a mirror's remote run.
	cancel func()
}

// status snapshots the wire form.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Key:         j.key,
		Program:     j.name,
		Node:        j.node,
		Tenant:      j.tenant,
		Cached:      j.cached,
		Coalesced:   j.kind == kindCoalesced,
		SubmittedAt: j.submitted,
		FinishedAt:  j.finished,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.result != nil {
		r := j.result.clone()
		r.Cached = j.cached
		st.Result = r
	}
	return st
}

// markRunning records the executor pickup and its cancel hook; it returns
// false when the job was canceled while queued.
func (j *job) markRunning(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.events.Publish(obs.Event{Type: obs.EventJob, State: string(StateRunning)})
	return true
}
