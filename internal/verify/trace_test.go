package verify_test

import (
	"context"
	"testing"

	"nonmask/internal/fault"
	"nonmask/internal/obs"
	"nonmask/internal/program"
	"nonmask/internal/protocols/tokenring"
	"nonmask/internal/verify"
)

// TestCheckEmitsPassSpans pins the tracing contract: every pass Check runs
// emits exactly one span, in execution order, with exact state counts —
// and a live tracer passed via WithTracer sees the same stream.
func TestCheckEmitsPassSpans(t *testing.T) {
	inst, err := tokenring.NewRing(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	live := &obs.Collector{}
	prog := &obs.Progress{}
	ctx := context.Background()
	rep, err := verify.Check(ctx, inst.P, inst.S, nil,
		verify.WithTracer(live), verify.WithProgress(prog))
	if err != nil {
		t.Fatal(err)
	}

	// A plain check runs on the forward CSR alone: no reverse index.
	checkPassSeries(t, rep, []string{verify.PassSuccTable,
		verify.PassClosure, verify.PassConvergeUnfair}, 0)
	// The longest-path DFS reports its peak depth.
	if f := rep.Passes[2].Frontier; f <= 0 {
		t.Errorf("converge_unfair frontier = %d, want > 0", f)
	}

	// The live tracer saw the identical stream.
	liveStats := live.Passes()
	if len(liveStats) != len(rep.Passes) {
		t.Fatalf("live tracer saw %d spans, report has %d", len(liveStats), len(rep.Passes))
	}
	for i := range liveStats {
		if liveStats[i] != rep.Passes[i] {
			t.Fatalf("live span %d = %+v, report span = %+v", i, liveStats[i], rep.Passes[i])
		}
	}

	// The progress counter was fed by the hot loops and ended on the last
	// pass it saw.
	snap := prog.Snapshot()
	if snap.Pass == "" || snap.Done == 0 {
		t.Fatalf("progress never sampled a pass: %+v", snap)
	}
}

// TestVariantTableComputedOnce pins the span series of a metrics job and
// the arbitrary-daemon cache behind it. The distance profile's backward
// BFS builds the reverse CSR, whose span ends (nested) before the
// profile's own. The longest-path DFS runs exactly once: the verdict
// seeds the worst-case metrics, and a following WorstDistancesContext or
// CheckConvergenceContext on the report's space does not run it again.
func TestVariantTableComputedOnce(t *testing.T) {
	inst, err := tokenring.NewRing(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rep, err := verify.Check(ctx, inst.P, inst.S, nil, verify.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	checkPassSeries(t, rep, []string{verify.PassSuccTable,
		verify.PassClosure, verify.PassConvergeUnfair, verify.PassPredTable,
		verify.PassDistanceProfile, verify.PassExpectedSteps}, 0, 3)
	if !rep.Unfair.Converges || rep.Metrics.WorstSteps != rep.Unfair.WorstSteps ||
		rep.Metrics.MeanWorstSteps != rep.Unfair.MeanSteps {
		t.Fatalf("metrics worst (%d, %v) disagree with the verdict: %s",
			rep.Metrics.WorstSteps, rep.Metrics.MeanWorstSteps, rep.Unfair.Summary())
	}
	before := len(rep.Passes)
	steps, ok, err := rep.Space.WorstDistancesContext(ctx)
	if err != nil || !ok || int64(len(steps)) != rep.Space.Count {
		t.Fatalf("WorstDistancesContext = %d entries, %v, %v", len(steps), ok, err)
	}
	again, err := rep.Space.CheckConvergenceContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again == rep.Unfair || again.Summary() != rep.Unfair.Summary() {
		t.Fatalf("repeat verdict %p %q, want a copy of %p %q", again, again.Summary(), rep.Unfair, rep.Unfair.Summary())
	}
	if stats := rep.PassStats(); len(stats) != before {
		t.Fatalf("follow-up calls added spans %+v, want none", stats[before:])
	}
}

// checkPassSeries asserts that rep's spans are exactly the want series,
// each over the full space, and that the index-building spans at the
// given positions carry their edge count and byte size.
func checkPassSeries(t *testing.T, rep *verify.Report, want []string, indexPasses ...int) {
	t.Helper()
	if len(rep.Passes) != len(want) {
		t.Fatalf("Report.Passes = %+v, want passes %v", rep.Passes, want)
	}
	for i, name := range want {
		s := rep.Passes[i]
		if s.Pass != name {
			t.Fatalf("pass %d = %q, want %q (all: %+v)", i, s.Pass, name, rep.Passes)
		}
		if s.States != rep.Space.Count {
			t.Errorf("pass %s states = %d, want the full space %d", name, s.States, rep.Space.Count)
		}
		if s.Workers < 1 {
			t.Errorf("pass %s workers = %d", name, s.Workers)
		}
		if s.ElapsedMS < 0 {
			t.Errorf("pass %s negative elapsed %v", name, s.ElapsedMS)
		}
	}
	for _, i := range indexPasses {
		if s := rep.Passes[i]; s.Edges <= 0 || s.Bytes <= 0 {
			t.Errorf("pass %s edges = %d, bytes = %d, want both > 0", s.Pass, s.Edges, s.Bytes)
		}
	}
}

// TestPassStatsFoldsInFollowUpPasses checks that passes run on the
// report's Space after Check returns keep feeding the same collector, so
// PassStats() and the CLI -trace table include them.
func TestPassStatsFoldsInFollowUpPasses(t *testing.T) {
	inst, err := tokenring.NewRing(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rep, err := verify.Check(ctx, inst.P, inst.S, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := len(rep.PassStats())

	if _, err := rep.Space.CheckFairConvergenceContext(ctx); err != nil {
		t.Fatal(err)
	}
	stats := rep.PassStats()
	if len(stats) != before+1 {
		t.Fatalf("PassStats grew %d -> %d, want one more span", before, len(stats))
	}
	if last := stats[len(stats)-1]; last.Pass != verify.PassConvergeFair {
		t.Fatalf("follow-up span = %q, want %q", last.Pass, verify.PassConvergeFair)
	}
}

// TestCheckWithFaultsEmitsFaultSpanFirst checks the fault-span pre-pass
// traces ahead of enumeration.
func TestCheckWithFaultsEmitsFaultSpanFirst(t *testing.T) {
	inst, err := tokenring.NewRing(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Actions(inst.P.Schema, []program.VarID{inst.P.Schema.MustLookup("x[0]")})
	rep, err := verify.Check(context.Background(), inst.P, inst.S, nil,
		verify.WithFaults(faults...))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Passes) == 0 || rep.Passes[0].Pass != verify.PassFaultSpan {
		t.Fatalf("first pass = %+v, want %q", rep.Passes, verify.PassFaultSpan)
	}
}
