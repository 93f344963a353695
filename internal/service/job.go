package service

import (
	"fmt"
	"sync"
	"time"

	"nonmask/internal/constraint"
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

// compiled is a validated, runnable job payload: the checkable triple plus
// its content-address and effective options. Compilation (GCL parse/compile
// or catalog build) happens synchronously at submission so malformed jobs
// fail with 400 instead of occupying the queue.
type compiled struct {
	name string
	prog *program.Program
	s, t *program.Predicate
	key  string
	opts verify.Options
	// constraints are the invariant conjuncts the metrics analyses break
	// recovery costs down by (empty without a layered design, or when the
	// job did not select metrics).
	constraints []verify.ConstraintSpec
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

// verifyOptions resolves wire options against server defaults.
func (o JobOptions) verifyOptions(cfg Config) (verify.Options, error) {
	opts := verify.Options{Workers: o.Workers, MaxStates: o.MaxStates}
	if opts.Workers == 0 {
		opts.Workers = cfg.CheckWorkers
	}
	if opts.MaxStates == 0 {
		opts.MaxStates = cfg.MaxStates
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

// compileSpec validates and compiles a submission into a runnable job.
func compileSpec(spec JobSpec, cfg Config) (*compiled, error) {
	opts, err := spec.Options.verifyOptions(cfg)
	if err != nil {
		return nil, err
	}
	if err := validateStaticOptions(opts); err != nil {
		return nil, err
	}
	var sab *saboteur.Options
	if spec.Options.Saboteur != nil {
		if sab, err = spec.Options.Saboteur.engineOptions(); err != nil {
			return nil, err
		}
	}
	var priority bool
	switch spec.Options.Priority {
	case "", "normal":
	case "high":
		priority = true
	default:
		return nil, fmt.Errorf("unknown priority %q (want normal | high)", spec.Options.Priority)
	}
	switch {
	case spec.Source != "" && spec.Protocol != "":
		return nil, fmt.Errorf("job sets both source and protocol; pick one")
	case spec.Source != "":
		if opts.SpaceMode == verify.SpaceQuotient {
			return nil, fmt.Errorf("space_mode=quotient requires a catalog protocol that advertises a symmetry group; GCL source jobs have none")
		}
		file, err := gcl.Parse(spec.Source)
		if err != nil {
			return nil, fmt.Errorf("parse: %w", err)
		}
		// Content-address the canonical pretty-printed form, so
		// formatting- or comment-only variations share a cache entry.
		canonical := gcl.Print(file)
		m, err := gcl.Compile(file)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		if sab != nil {
			// The saboteur enumerates the full space; reject instances
			// over the effective cap at submission, like the catalog path.
			max := opts.MaxStates
			if max <= 0 {
				max = verify.DefaultMaxStates
			}
			if count, ok := m.Program.Schema.StateCount(); !ok || count > max {
				return nil, fmt.Errorf("saboteur requires an enumerable instance: %d states exceeds the advertised bound of %d states", count, max)
			}
		}
		return &compiled{
			name:        m.Name,
			prog:        m.Program,
			s:           m.S,
			t:           m.T,
			key:         fingerprintSource(canonical, opts, sab),
			opts:        opts,
			constraints: specsFromSet(m.Set),
			saboteur:    sab,
			spec:        spec,
			priority:    priority,
		}, nil
	case spec.Protocol != "":
		params, err := registry.Normalize(spec.Protocol, spec.Params)
		if err != nil {
			return nil, err
		}
		// Enforce the catalog's advertised parameter bounds before the job
		// can occupy a queue slot; the error names the advertised range.
		if err := registry.Validate(spec.Protocol, params); err != nil {
			return nil, err
		}
		if sab != nil {
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
		constraints := registry.ConstraintSpecs(inst)
		// Attach the advertised symmetry group only to jobs the quotient is
		// sound for: the saboteur searches the concrete transition graph
		// (its witness must replay on real states), and the per-constraint
		// recovery costs of layered designs are permuted — not preserved —
		// by the group (registry.Instance documents the boundary). Auto mode
		// silently stays on the full/spill ladder for those; an explicit
		// quotient request is rejected with the reason.
		sym := inst.Symmetry
		switch {
		case sab != nil:
			if opts.SpaceMode == verify.SpaceQuotient {
				return nil, fmt.Errorf("space_mode=quotient is incompatible with the saboteur: the fault-schedule witness must replay on concrete states, not orbit representatives")
			}
			sym = nil
		case opts.Metrics && len(constraints) > 0:
			if opts.SpaceMode == verify.SpaceQuotient {
				return nil, fmt.Errorf("space_mode=quotient is incompatible with analyses=metrics on a layered design: per-constraint recovery costs are not symmetry-invariant; use space_mode=full or drop metrics")
			}
			sym = nil
		}
		if opts.SpaceMode == verify.SpaceQuotient && sym == nil {
			return nil, fmt.Errorf("%s advertises no symmetry group; space_mode=quotient needs one", spec.Protocol)
		}
		opts.Symmetry = sym
		return &compiled{
			name:        inst.Name,
			prog:        inst.Program,
			s:           inst.S,
			t:           inst.T,
			key:         fingerprintProtocol(spec.Protocol, params, opts, sab),
			opts:        opts,
			constraints: constraints,
			protocol:    spec.Protocol,
			params:      params,
			saboteur:    sab,
			spec:        spec,
			priority:    priority,
		}, nil
	default:
		return nil, fmt.Errorf("job sets neither source nor protocol")
	}
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

// job is the server-side record of one submission.
type job struct {
	id string
	c  *compiled
	// node is the server's cluster node name (newJobLocked stamps it).
	node string

	mu        sync.Mutex
	state     JobState
	cached    bool
	coalesced bool
	err       error
	result    *Result
	submitted time.Time
	finished  time.Time
	cancel    func() // non-nil while running; cancels the check context

	// followers are coalesced jobs waiting on this job's terminal
	// transition; they inherit it verbatim (single-flight).
	followers []*job

	// onTerminal, when non-nil, runs once after the terminal transition
	// (outside j.mu); the server uses it to release the job's in-flight
	// coalescing entry.
	onTerminal func()

	// events is the job's bus stream (newJobLocked attaches it); its
	// sequence is the replayable event log SSE subscribers drain. Nil on
	// jobs never registered with a server (tests), which Publish tolerates.
	events *obs.Stream

	// done is closed on the terminal transition; long-polls wait on it.
	done chan struct{}
}

func newJob(id string, c *compiled, now time.Time) *job {
	return &job{id: id, c: c, state: StateQueued, submitted: now, done: make(chan struct{})}
}

// status snapshots the wire form.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Key:         j.c.key,
		Program:     j.c.name,
		Node:        j.node,
		Tenant:      j.c.tenant,
		Cached:      j.cached,
		Coalesced:   j.coalesced,
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

// transition moves the job to a terminal state exactly once and wakes
// long-polls. Coalesced followers inherit the same terminal state, and
// the server's in-flight entry (if any) is released. Returns false if the
// job was already terminal.
func (j *job) transition(state JobState, res *Result, err error, now time.Time) bool {
	j.mu.Lock()
	followers, ok := j.terminateLocked(state, res, err, now)
	j.mu.Unlock()
	if !ok {
		return false
	}
	j.settle(followers, state, res, err, now)
	return true
}

// terminateLocked applies the terminal transition with j.mu held and
// returns the coalesced followers to notify. Callers must hand them to
// settle after releasing j.mu — follower transitions take the followers'
// own locks, and the lock order is strictly leader before follower.
func (j *job) terminateLocked(state JobState, res *Result, err error, now time.Time) ([]*job, bool) {
	if j.state.terminal() {
		return nil, false
	}
	j.state = state
	j.result = res
	j.err = err
	j.finished = now
	j.cancel = nil
	followers := j.followers
	j.followers = nil
	ev := obs.Event{Type: obs.EventJob, State: string(state)}
	switch {
	case err != nil:
		ev.Detail = err.Error()
	case res != nil:
		ev.Detail = res.Verdict
		if j.cached {
			ev.Detail += " (cached)"
		} else if j.coalesced {
			ev.Detail += " (coalesced)"
		}
	}
	j.events.Publish(ev)
	close(j.done)
	return followers, true
}

// settle runs the post-terminal notifications outside j.mu: followers are
// completed with the leader's terminal state, then the server-side hook
// (the in-flight coalescing entry) is released.
func (j *job) settle(followers []*job, state JobState, res *Result, err error, now time.Time) {
	for _, f := range followers {
		f.transition(state, res, err, now)
	}
	if j.onTerminal != nil {
		j.onTerminal()
	}
}

// attachFollower links a coalesced submission to this job. A leader that
// already reached a terminal state completes the follower immediately;
// otherwise the follower inherits the leader's eventual transition.
func (j *job) attachFollower(f *job, now time.Time) {
	j.mu.Lock()
	if j.state.terminal() {
		state, res, err := j.state, j.result, j.err
		j.mu.Unlock()
		f.transition(state, res, err, now)
		return
	}
	j.followers = append(j.followers, f)
	j.mu.Unlock()
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

// requestCancel cancels a queued job immediately, or interrupts a running
// one via its check context. Terminal jobs are left alone.
func (j *job) requestCancel(now time.Time) (affected bool) {
	j.mu.Lock()
	if j.state == StateQueued {
		// Route through the shared terminal path so coalesced followers
		// are canceled with their leader and the in-flight entry drops.
		err := fmt.Errorf("canceled while queued")
		followers, _ := j.terminateLocked(StateCanceled, nil, err, now)
		j.mu.Unlock()
		j.settle(followers, StateCanceled, nil, err, now)
		return true
	}
	cancel := j.cancel
	running := j.state == StateRunning
	j.mu.Unlock()
	if running && cancel != nil {
		cancel()
	}
	return running
}
