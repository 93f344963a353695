// Metamorphic tests of the scaling ladder: the space tier — full,
// quotient, spill — is a pure capacity choice, so every verdict,
// witness, and metric on every checked-in GCL model must be
// bit-identical across all of them and across worker counts. The
// addressing limits and the crash hygiene of the spill tier (kill
// mid-spill, sweep at next open) are pinned here too.
package verify_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"nonmask/internal/gcl"
	"nonmask/internal/protocols/tokenring"
	"nonmask/internal/verify"
)

// moduleSpecs derives the per-constraint metric specs the same way
// gclrun does, so the ladder runs the full metrics suite including
// constraint costs.
func moduleSpecs(m *gcl.Module) []verify.ConstraintSpec {
	specs := make([]verify.ConstraintSpec, 0, len(m.Set.Constraints))
	for _, c := range m.Set.Constraints {
		specs = append(specs, verify.ConstraintSpec{Name: c.Pred.Name, Pred: c.Pred})
	}
	return specs
}

// compareMetrics asserts bit-identical tolerance metrics: the engine
// fixes its floating-point summation order, so even the float aggregates
// must agree exactly across tiers and worker counts.
func compareMetrics(t *testing.T, want, got *verify.ToleranceMetrics) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("metrics presence differs: want %v, got %v", want != nil, got != nil)
	}
	if want == nil {
		return
	}
	if !reflect.DeepEqual(want.Profile, got.Profile) {
		t.Errorf("Profile: want %v, got %v", want.Profile, got.Profile)
	}
	if want.MaxDistance != got.MaxDistance || want.UnreachableStates != got.UnreachableStates {
		t.Errorf("distance: want (%d,%d), got (%d,%d)",
			want.MaxDistance, want.UnreachableStates, got.MaxDistance, got.UnreachableStates)
	}
	if want.MeanDistance != got.MeanDistance {
		t.Errorf("MeanDistance: want %v, got %v", want.MeanDistance, got.MeanDistance)
	}
	if want.WorstMeasured != got.WorstMeasured || want.WorstSteps != got.WorstSteps ||
		want.MeanWorstSteps != got.MeanWorstSteps {
		t.Errorf("worst: want (%v,%d,%v), got (%v,%d,%v)",
			want.WorstMeasured, want.WorstSteps, want.MeanWorstSteps,
			got.WorstMeasured, got.WorstSteps, got.MeanWorstSteps)
	}
	if want.ExpectedMeasured != got.ExpectedMeasured || want.ExpectedSteps != got.ExpectedSteps ||
		want.MeanExpectedSteps != got.MeanExpectedSteps {
		t.Errorf("expected: want (%v,%v,%v), got (%v,%v,%v)",
			want.ExpectedMeasured, want.ExpectedSteps, want.MeanExpectedSteps,
			got.ExpectedMeasured, got.ExpectedSteps, got.MeanExpectedSteps)
	}
	if !reflect.DeepEqual(want.Constraints, got.Constraints) {
		t.Errorf("Constraints: want %+v, got %+v", want.Constraints, got.Constraints)
	}
}

// TestSpaceLadderMetamorphic cross-runs every GCL model through every
// tier of the ladder — identity-group quotient and the spill tier —
// across worker counts, against the full in-RAM baseline. The identity
// group makes every orbit a singleton, so the quotient machinery
// (canonicalization sweeps, representative lookup, orbit weights) runs
// end-to-end while the answers must match the full space exactly. The
// two quotient tiers differ only in worker count: both run the
// exact-index representative lookup. The spill-flush tier shrinks the
// frontier run threshold to a few states, so every frontier traversal
// (the distance profile, the doomed and stable closures, leads-to)
// flushes sorted runs and drains them through the merge; it also
// compares leads-to under both daemons and checks the spill directory
// is empty after Close.
func TestSpaceLadderMetamorphic(t *testing.T) {
	ctx := context.Background()
	for name, m := range gclModels(t) {
		t.Run(name, func(t *testing.T) {
			specs := moduleSpecs(m)
			base, err := verify.Check(ctx, m.Program, m.S, m.T,
				verify.WithWorkers(1), verify.WithMetrics(), verify.WithConstraints(specs...))
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if base.Space.Mode() != verify.SpaceFull {
				t.Fatalf("baseline ran on %v, want full", base.Space.Mode())
			}

			type tier struct {
				name    string
				workers int
				options []verify.Option
				mode    verify.SpaceMode
				flush   bool
			}
			flushDir := t.TempDir()
			tiers := []tier{
				{"quotient-fingerprint-w1", 1, []verify.Option{
					verify.WithSpaceMode(verify.SpaceQuotient),
					verify.WithSymmetry(verify.IdentitySymmetry()),
				}, verify.SpaceQuotient, false},
				{"quotient-fingerprint-w4", 4, []verify.Option{
					verify.WithSpaceMode(verify.SpaceQuotient),
					verify.WithSymmetry(verify.IdentitySymmetry()),
				}, verify.SpaceQuotient, false},
				{"spill-w1", 1, []verify.Option{
					verify.WithSpaceMode(verify.SpaceSpill),
					verify.WithSpillDir(t.TempDir()),
				}, verify.SpaceSpill, false},
				{"spill-w4", 4, []verify.Option{
					verify.WithSpaceMode(verify.SpaceSpill),
					verify.WithSpillDir(t.TempDir()),
				}, verify.SpaceSpill, false},
				{"spill-flush", 2, []verify.Option{
					verify.WithSpaceMode(verify.SpaceSpill),
					verify.WithSpillDir(flushDir),
				}, verify.SpaceSpill, true},
			}
			for _, tr := range tiers {
				t.Run(tr.name, func(t *testing.T) {
					if tr.flush {
						// Named run files, so the empty-dir check below
						// sees any the drain fails to remove.
						defer verify.SetSpoolRunEntries(3)()
						defer verify.SetSpillNamedFallback(true)()
					}
					opts := append([]verify.Option{
						verify.WithWorkers(tr.workers), verify.WithMetrics(),
						verify.WithConstraints(specs...),
					}, tr.options...)
					rep, err := verify.Check(ctx, m.Program, m.S, m.T, opts...)
					if err != nil {
						t.Fatal(err)
					}
					defer rep.Close()
					if rep.Space.Mode() != tr.mode {
						t.Fatalf("ran on %v, want %v", rep.Space.Mode(), tr.mode)
					}
					if tr.mode == verify.SpaceQuotient {
						if reps, _ := rep.Space.QuotientStats(); reps != base.Space.Count {
							t.Fatalf("identity quotient has %d reps, want %d (every orbit a singleton)",
								reps, base.Space.Count)
						}
					}
					if tr.mode == verify.SpaceSpill {
						if seg, _ := rep.Space.SpillStats(); seg == 0 {
							t.Fatal("spill tier materialized no segment bytes")
						}
					}
					compareReports(t, base, rep)
					compareMetrics(t, base.Metrics, rep.Metrics)
					if !tr.flush {
						return
					}
					for _, fair := range []bool{false, true} {
						want := base.Space.LeadsTo(base.Space.T, base.Space.S, fair)
						got := rep.Space.LeadsTo(rep.Space.T, rep.Space.S, fair)
						if fmt.Sprint(want.Holds, want.Stuck, want.Cycle) != fmt.Sprint(got.Holds, got.Stuck, got.Cycle) {
							t.Errorf("LeadsTo(T, S, fair %v): want %v %v %v, got %v %v %v", fair,
								want.Holds, want.Stuck, want.Cycle, got.Holds, got.Stuck, got.Cycle)
						}
					}
					if _, spooled := rep.Space.SpillStats(); spooled == 0 {
						t.Error("spill-flush tier spooled no frontier bytes")
					}
					if err := rep.Close(); err != nil {
						t.Fatal(err)
					}
					if ents, err := os.ReadDir(flushDir); err != nil || len(ents) != 0 {
						t.Fatalf("spill dir after Close: %v entries, err %v", len(ents), err)
					}
				})
			}
		})
	}
}

// TestCSRLimits pins the CSR's addressing limits on synthetic counts:
// int32 state ids in both indexes, uint32 offsets relative to one chunk
// in the forward index (at most 2^14 states times nA actions of edges)
// and global in the reverse index (E edges). The forward index is thus
// not capped by E. A tier past a limit is refused with the offending
// count named, never truncated into a corrupt graph.
func TestCSRLimits(t *testing.T) {
	for _, c := range []struct {
		count    int64
		nA       int
		edges    int64
		fwd, rev string // "" = fits
	}{
		{math.MaxInt32, 1<<18 - 1, math.MaxUint32, "", ""},
		{math.MaxInt32 + 1, 1, 0, "2147483648 states", "2147483648 states"},
		{1 << 20, 4, math.MaxUint32 + 1, "", "4294967296 edges"},
		{1 << 20, 1 << 18, 0, "4294967296 edges", ""},
	} {
		fwd, rev := verify.CSRFits(c.count, c.nA, c.edges)
		for _, r := range []struct {
			index string
			err   error
			want  string
		}{{"forward", fwd, c.fwd}, {"reverse", rev, c.rev}} {
			if r.want == "" {
				if r.err != nil {
					t.Errorf("%s CSRFits(%d, %d, %d) = %v, want nil", r.index, c.count, c.nA, c.edges, r.err)
				}
				continue
			}
			if r.err == nil || !strings.Contains(r.err.Error(), r.want) {
				t.Errorf("%s CSRFits(%d, %d, %d) = %v, want an error naming %q", r.index, c.count, c.nA, c.edges, r.err, r.want)
			}
		}
	}
}

// TestOverBudgetRefusal pins the two ways an over-budget CSR fails
// instead of escalating: a forced full tier, and an auto ladder whose
// spill rung cannot open its arena. Both errors name the edge count the
// walk had reached at refusal (the whole space here: it is one chunk)
// and the budget.
func TestOverBudgetRefusal(t *testing.T) {
	inst, err := tokenring.NewRing(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := verify.Check(ctx, inst.P, inst.S, nil)
	if err != nil {
		t.Fatal(err)
	}
	edges, _ := base.Space.SuccIndexStats()
	wantEdges := strconv.FormatInt(edges, 10) + " edges"

	defer verify.SetSuccIndexBudget(1)()
	_, err = verify.Check(ctx, inst.P, inst.S, nil, verify.WithSpaceMode(verify.SpaceFull))
	if err == nil || !strings.Contains(err.Error(), wantEdges) || !strings.Contains(err.Error(), "budget 1") {
		t.Fatalf("forced full over budget: got %v, want a refusal naming %q and the budget", err, wantEdges)
	}

	// A spill dir beneath a regular file cannot be created.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = verify.Check(ctx, inst.P, inst.S, nil, verify.WithSpillDir(filepath.Join(file, "spill")))
	if err == nil || !strings.Contains(err.Error(), wantEdges) || !strings.Contains(err.Error(), "spill dir") {
		t.Fatalf("auto with no usable spill dir: got %v, want a refusal naming %q and the arena error", err, wantEdges)
	}
}

// TestReverseIndexMatchesForward pins the reverse CSR the metrics passes
// walk backwards: on the in-RAM and spill tiers, at one and four workers,
// it must equal the predecessor lists read off the forward CSR by a plain
// sequential loop (one entry per forward edge, sources ascending).
func TestReverseIndexMatchesForward(t *testing.T) {
	inst, err := tokenring.NewRing(6, 6) // 46,656 states: several chunks
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tiers := map[string][]verify.Option{
		"full":  {verify.WithSpaceMode(verify.SpaceFull)},
		"spill": {verify.WithSpaceMode(verify.SpaceSpill), verify.WithSpillDir(t.TempDir())},
	}
	for name, tier := range tiers {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s/workers=%d", name, workers)
			rep, err := verify.Check(ctx, inst.P, inst.S, nil, append(tier, verify.WithWorkers(workers))...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			offsets, edges := rep.Space.ForwardCSR()
			preds := make([][]int32, rep.Space.Count)
			for i := range preds {
				for _, j := range edges[offsets[i]:offsets[i+1]] {
					preds[j] = append(preds[j], int32(i))
				}
			}
			revOff, revPred, err := rep.Space.ReverseIndex()
			if err != nil {
				t.Fatalf("%s: reverse index: %v", label, err)
			}
			if len(revOff) != len(preds)+1 || len(revPred) != len(edges) || int(revOff[len(preds)]) != len(edges) {
				t.Fatalf("%s: reverse index sized %d offsets, %d entries (last offset %d); want %d, %d",
					label, len(revOff), len(revPred), revOff[len(revOff)-1], len(preds)+1, len(edges))
			}
			for j, want := range preds {
				if got := revPred[revOff[j]:revOff[j+1]]; !slices.Equal(got, want) {
					t.Fatalf("%s: predecessors of %d = %v, want %v", label, j, got, want)
				}
			}
			if err := rep.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSpillKillLeftoverSweep is the crash half of the temp hygiene
// contract: a child process forced onto the named-file fallback is
// SIGKILLed mid-spill, its ".csspill-<pid>-*" leftovers must survive the
// kill (proving the window exists), and the next arena open on the same
// directory must sweep them because the pid is dead.
func TestSpillKillLeftoverSweep(t *testing.T) {
	if os.Getenv("VERIFY_SPILL_CHILD_DIR") != "" {
		t.Skip("child-only helper")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestSpillKillChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "VERIFY_SPILL_CHILD_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the child's first named spill file, then kill it mid-run.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if names := spillFiles(t, dir); len(names) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child produced no named spill files within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	left := spillFiles(t, dir)
	if len(left) == 0 {
		t.Fatal("kill left no spill files — the leak window this test guards never opened")
	}
	pidPrefix := ".csspill-" + strconv.Itoa(cmd.Process.Pid) + "-"
	for _, name := range left {
		if !strings.HasPrefix(name, pidPrefix) {
			t.Fatalf("leftover %q does not carry the dead child's pid prefix %q", name, pidPrefix)
		}
	}

	// A fresh spill check on the same directory opens an arena, which
	// sweeps the dead child's files; its own temps are removed at Close.
	defer verify.SetSpillNamedFallback(true)()
	inst, err := tokenring.NewRing(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Check(context.Background(), inst.P, inst.S, nil,
		verify.WithSpaceMode(verify.SpaceSpill), verify.WithSpillDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if names := spillFiles(t, dir); len(names) != 0 {
		t.Fatalf("spill files remain after sweep and close: %v", names)
	}
}

// TestSpillKillChildProcess is the subprocess body of
// TestSpillKillLeftoverSweep: it spills a multi-second check into the
// parent's directory on the named-file fallback and expects to be killed
// before finishing. Skipped unless launched by the parent.
func TestSpillKillChildProcess(t *testing.T) {
	dir := os.Getenv("VERIFY_SPILL_CHILD_DIR")
	if dir == "" {
		t.Skip("only run as a subprocess of TestSpillKillLeftoverSweep")
	}
	defer verify.SetSpillNamedFallback(true)()
	inst, err := tokenring.NewRing(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Check(context.Background(), inst.P, inst.S, nil,
		verify.WithSpaceMode(verify.SpaceSpill), verify.WithSpillDir(dir))
	if err == nil {
		rep.Close()
	}
	t.Fatal("child expected to be killed mid-spill but finished")
}

// spillFiles lists the named spill temp files currently in dir.
func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".csspill-") {
			names = append(names, e.Name())
		}
	}
	return names
}
