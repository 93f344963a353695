package verify

import (
	"context"
	"fmt"
	"strings"
	"time"

	"nonmask/internal/obs"
	"nonmask/internal/program"
)

// Report bundles everything Check decides about a candidate triple
// (program, invariant S, fault-span T): the paper's closure and
// convergence requirements under both daemons, plus the Section 3
// masking/nonmasking classification.
type Report struct {
	// Options records the effective configuration the check ran with.
	Options Options
	// Space is the enumerated state space, available for follow-up passes
	// (LeadsTo, CheckStair, CheckVariant, WorstDistances) without paying
	// enumeration again.
	Space *Space
	// Span is the computed fault-span result when WithFaults was given,
	// nil otherwise.
	Span *SpanResult
	// Closure is the first closure violation of S or T, nil when both are
	// closed.
	Closure *ClosureViolation
	// Unfair is the convergence verdict under the arbitrary daemon.
	Unfair *ConvergenceResult
	// Fair is the convergence verdict under the weakly fair daemon. It is
	// computed only when the arbitrary daemon fails (the paper's Section 8
	// remark: fairness is often unnecessary), so it is nil when Unfair
	// converges.
	Fair *ConvergenceResult
	// Classification is Masking when S = T semantically, Nonmasking when
	// faults can drive the program strictly outside S.
	Classification Classification
	// Metrics is the quantitative tolerance analysis (distance profile,
	// worst/expected stabilization time, per-constraint recovery costs),
	// present only when WithMetrics was given.
	Metrics *ToleranceMetrics
	// Passes records one span per verifier pass the check ran, in
	// completion order: the exact state counts and wall time of the
	// walk that builds the space, closure scans and convergence
	// fixpoints. Always populated (collection costs a few time.Now calls);
	// WithTracer additionally streams the same spans live.
	Passes []obs.PassStat
	// Elapsed is the wall-clock time the whole check took.
	Elapsed time.Duration

	// collector keeps receiving spans from passes run on Space after
	// Check returns (stairs, leads-to, variants); PassStats folds them in.
	collector *obs.Collector
}

// PassStats refreshes and returns the span history, including passes run
// on the report's Space after Check returned (CheckStair, LeadsTo,
// CheckVariant, WorstDistances all keep recording into the same
// collector).
func (r *Report) PassStats() []obs.PassStat {
	if r.collector != nil {
		r.Passes = r.collector.Passes()
	}
	return r.Passes
}

// Converges reports whether convergence holds under the weakest daemon
// that was needed: the arbitrary daemon if possible, else the weakly fair
// one.
func (r *Report) Converges() bool {
	return r.Unfair.Converges || (r.Fair != nil && r.Fair.Converges)
}

// Tolerant reports whether the program satisfies the paper's definition of
// fault-tolerance for the checked S and T: closure of both predicates and
// convergence under the (weakly fair) daemon.
func (r *Report) Tolerant() bool {
	return r.Closure == nil && r.Converges()
}

// Summary renders a multi-line human-readable verdict.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "space: %d states, |S| = %d, |T| = %d (%s)\n",
		r.Space.Count, r.Unfair.StatesS, r.Unfair.StatesT, r.Classification)
	if r.Span != nil {
		fmt.Fprintf(&b, "fault-span: %d of %d states\n", r.Span.States, r.Span.Total)
	}
	if r.Closure != nil {
		fmt.Fprintf(&b, "closure: %s\n", r.Closure.Error())
	} else {
		b.WriteString("closure: S and T closed\n")
	}
	fmt.Fprintf(&b, "convergence: %s\n", r.Unfair.Summary())
	if r.Fair != nil {
		fmt.Fprintf(&b, "convergence: %s\n", r.Fair.Summary())
	}
	if r.Tolerant() {
		b.WriteString("verdict: tolerant")
	} else {
		b.WriteString("verdict: NOT tolerant")
	}
	return b.String()
}

// Check is the package's unified entry point: it enumerates the state
// space of p, verifies the closure of S and T, decides convergence under
// the arbitrary daemon and — only if that fails — under the weakly fair
// daemon, and classifies the tolerance as masking or nonmasking. It
// replaces the scattered NewSpace + CheckClosure + CheckConvergence +
// CheckFairConvergence call sequence (and, with WithFaults, the separate
// FaultSpan pre-pass) of earlier versions.
//
// T may be nil, meaning true — the fault-span of every stabilizing
// program. Every pass is sharded across WithWorkers goroutines (default
// runtime.NumCPU()) and polls ctx; WithDeadline adds a wall-clock bound on
// top. Verdicts and witnesses are identical for every worker count.
func Check(ctx context.Context, p *program.Program, S, T *program.Predicate, options ...Option) (*Report, error) {
	opts, extras := buildOptions(options)
	if err := opts.validate(); err != nil {
		return nil, err
	}
	// Record the effective (defaults-resolved) configuration on the report.
	opts.MaxStates = opts.maxStates()
	opts.Workers = opts.workers()
	opts.Strategy = opts.strategy()
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
	}
	start := time.Now()

	// Every pass records its span into the collector, which forwards it
	// to the user's tracer (if any) live. The report keeps the caller's
	// options, not the collecting ones.
	rep := &Report{Options: opts, collector: &obs.Collector{Next: opts.Tracer}}
	runOpts := opts
	runOpts.Tracer = rep.collector
	if extras.faults != nil {
		span, err := FaultSpanContext(ctx, p, extras.faults, S, runOpts)
		if err != nil {
			return nil, err
		}
		rep.Span = span
		T = span.Span
	}
	if T == nil {
		T = program.True()
	}
	sp, err := NewSpaceContext(ctx, p, S, T, runOpts)
	if err != nil {
		return nil, err
	}
	rep.Space = sp
	rep.Classification = sp.Classify()
	if rep.Closure, err = sp.CheckClosureContext(ctx); err != nil {
		return nil, err
	}
	if rep.Unfair, err = sp.CheckConvergenceContext(ctx); err != nil {
		return nil, err
	}
	if !rep.Unfair.Converges {
		if rep.Fair, err = sp.CheckFairConvergenceContext(ctx); err != nil {
			return nil, err
		}
	}
	if opts.Metrics {
		if rep.Metrics, err = sp.MetricsContext(ctx, extras.constraints); err != nil {
			return nil, err
		}
	}
	if segBytes, spooled := sp.SpillStats(); segBytes > 0 || spooled > 0 {
		// Summary span of the check's disk traffic: Bytes is the resident
		// segment footprint, SpilledBytes the total written (segments plus
		// frontier runs).
		span := startPass(runOpts, PassSpill, 0)
		span.addSpilled(segBytes + spooled)
		span.endSized(sp.Count, 0, segBytes)
	}
	rep.Passes = rep.collector.Passes()
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// Close releases the disk-backed resources of the report's space (spill
// segment files); a no-op for in-RAM spaces. Call it when no follow-up
// passes will run on Report.Space — after Close the space's CSR views are
// invalid.
func (r *Report) Close() error {
	if r.Space == nil {
		return nil
	}
	return r.Space.Close()
}
