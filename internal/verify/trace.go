package verify

import (
	"time"

	"nonmask/internal/obs"
)

// The pass taxonomy (DESIGN §8). Every sharded pass of the checker emits
// exactly one obs.PassStat span per execution under one of these names;
// stage-level re-entries (a stair step's convergence check, leads-to's
// embedded livelock analysis) emit their own spans, so a trace is the
// full history of what the checker did, nested passes included.
const (
	// PassSuccTable is the one walk that builds a space: S/T evaluation
	// plus the forward CSR successor index. Its span carries the
	// enabled-edge count and the index's byte size (bytes 0 when the edge
	// set busted the in-RAM budget and the tier was refused mid-walk; its
	// states and edges are then those reached at refusal).
	PassSuccTable = "succ_table"
	// PassPredTable is the lazy construction of the reverse CSR
	// (predecessor index) for the metrics passes, emitted at most once
	// per Check — later passes reuse the cached index.
	PassPredTable = "pred_table"
	// PassClosure is one closure scan of one predicate.
	PassClosure = "closure"
	// PassConvergeUnfair is the arbitrary-daemon convergence verdict: the
	// region scan plus the longest-path DFS (its frontier is the peak DFS
	// depth).
	PassConvergeUnfair = "converge_unfair"
	// PassConvergeFair is the weakly-fair-daemon SCC analysis, including
	// its region-graph build.
	PassConvergeFair = "converge_fair"
	// PassFaultSpan is the program+fault reachability BFS.
	PassFaultSpan = "fault_span"
	// PassLeadsTo is a leads-to (progress) check's reachability stage.
	PassLeadsTo = "leads_to"
	// PassStair is a whole convergence-stair verification (its stage
	// checks nest their own closure/convergence spans).
	PassStair = "stair"
	// PassVariant is a variant-function validation scan.
	PassVariant = "variant"
	// PassPreserve is one exhaustive preservation scan.
	PassPreserve = "preserve"
	// PassDistanceProfile is the metrics engine's distance-to-invariant
	// BFS over the fault span (metrics.go).
	PassDistanceProfile = "distance_profile"
	// PassExpectedSteps is the uniform-random-daemon expected-stabilization
	// value iteration (metrics.go).
	PassExpectedSteps = "expected_steps"
	// PassConstraintCost is one constraint's recovery-cost computation:
	// stable-subset shrink plus the re-targeted convergence DFS (which
	// nests its own converge_unfair span).
	PassConstraintCost = "constraint_cost"
	// PassCanonicalize is the symmetry-quotient construction: the
	// representative-discovery and orbit-weight sweeps over the full
	// product (DESIGN §13). Emitted once per quotient space.
	PassCanonicalize = "canonicalize"
	// PassSpill is the per-Check summary of disk traffic on the spill
	// tier: its SpilledBytes field totals segment-file and frontier-run
	// bytes, its Bytes field the resident segment footprint. The
	// index-building passes additionally carry their own SpilledBytes.
	PassSpill = "spill"
)

// passSpan times one verifier pass. startPass resets the options'
// progress counter to the new pass and emits the tracer's start event;
// end emits the completed obs.PassStat. Error paths abandon the span
// without ending it — a trace only ever contains finished passes.
//
// The span is a by-value helper (no allocation); with tracing and
// progress off its cost is two time.Now calls per pass.
type passSpan struct {
	opts     Options
	name     string
	start    time.Time
	frontier int64
	spilled  int64
}

// startPass begins the named pass. total is the progress size hint
// (0 = unknown).
func startPass(opts Options, name string, total int64) passSpan {
	opts.Progress.StartPass(name, total)
	if opts.Tracer != nil {
		opts.Tracer.PassStart(name, total)
	}
	return passSpan{opts: opts, name: name, start: time.Now()}
}

// observeFrontier records a BFS frontier/wave size; the span keeps the peak.
func (s *passSpan) observeFrontier(n int64) {
	if n > s.frontier {
		s.frontier = n
	}
}

// addSpilled accrues bytes written to disk during the pass (mmap'd CSR
// segments, frontier spool runs).
func (s *passSpan) addSpilled(n int64) { s.spilled += n }

// end completes the span with the pass's exact processed-state count and
// delivers it to the tracer.
func (s *passSpan) end(states int64) { s.endSized(states, 0, 0) }

// endSized is end for the index-building passes, which additionally report
// the enabled-edge count and the byte size of the structure they built.
func (s *passSpan) endSized(states, edges, bytes int64) {
	if s.opts.Tracer == nil {
		return
	}
	s.opts.Tracer.PassEnd(obs.PassStat{
		Pass:         s.name,
		States:       states,
		Frontier:     s.frontier,
		Workers:      s.opts.workers(),
		Edges:        edges,
		Bytes:        bytes,
		SpilledBytes: s.spilled,
		ElapsedMS:    float64(time.Since(s.start)) / float64(time.Millisecond),
	})
}
