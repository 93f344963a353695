// Metamorphic tests of the scaling ladder: the space tier — full,
// quotient (fingerprint or exact map), spill — is a pure capacity choice,
// so every verdict, witness, and metric on every checked-in GCL model
// must be bit-identical across all of them and across worker counts.
// The refusal paths (fingerprint collision) and the crash hygiene of the
// spill tier (kill mid-spill, sweep at next open) are pinned here too.
package verify_test

import (
	"context"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"nonmask/internal/gcl"
	"nonmask/internal/program"
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
// tier of the ladder — identity-group quotient (fingerprint and exact
// map) and the spill tier — across worker counts, against the full
// in-RAM baseline. The identity group makes every orbit a singleton, so
// the quotient machinery (canonicalization scan, fingerprint lookup,
// orbit weights) runs end-to-end while the answers must match the full
// space exactly.
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
			}
			tiers := []tier{
				{"quotient-fingerprint-w1", 1, []verify.Option{
					verify.WithSpaceMode(verify.SpaceQuotient),
					verify.WithSymmetry(verify.IdentitySymmetry()),
				}, verify.SpaceQuotient},
				{"quotient-fingerprint-w4", 4, []verify.Option{
					verify.WithSpaceMode(verify.SpaceQuotient),
					verify.WithSymmetry(verify.IdentitySymmetry()),
				}, verify.SpaceQuotient},
				{"quotient-exact-w1", 1, []verify.Option{
					verify.WithSpaceMode(verify.SpaceQuotient),
					verify.WithSymmetry(verify.IdentitySymmetry()),
					verify.WithQuotientMap(verify.MapExact),
				}, verify.SpaceQuotient},
				{"spill-w1", 1, []verify.Option{
					verify.WithSpaceMode(verify.SpaceSpill),
					verify.WithSpillDir(t.TempDir()),
				}, verify.SpaceSpill},
				{"spill-w4", 4, []verify.Option{
					verify.WithSpaceMode(verify.SpaceSpill),
					verify.WithSpillDir(t.TempDir()),
				}, verify.SpaceSpill},
			}
			for _, tr := range tiers {
				t.Run(tr.name, func(t *testing.T) {
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
				})
			}
		})
	}
}

// TestFingerprintCollisionRefusal substitutes a degenerate hash that
// maps every state to the same 64-bit fingerprint: building the quotient
// lookup must refuse with a FingerprintCollision naming both colliding
// representatives — never a silent wrong verdict — and the exact map
// must still check the same instance.
func TestFingerprintCollisionRefusal(t *testing.T) {
	defer verify.SetStateFingerprint(func(*program.State) uint64 { return 0xdead })()
	inst, err := tokenring.NewRing(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, err = verify.Check(ctx, inst.P, inst.S, nil,
		verify.WithSpaceMode(verify.SpaceQuotient),
		verify.WithSymmetry(verify.IdentitySymmetry()))
	var coll *verify.FingerprintCollision
	if !errors.As(err, &coll) {
		t.Fatalf("want FingerprintCollision, got %v", err)
	}
	if coll.A == nil || coll.B == nil || coll.A.String() == coll.B.String() {
		t.Fatalf("collision report must name two distinct representatives, got %v / %v", coll.A, coll.B)
	}
	if coll.Fingerprint != 0xdead {
		t.Fatalf("collision fingerprint = %#x, want 0xdead", coll.Fingerprint)
	}

	// The documented retry path: the exact map does not hash, so the same
	// instance checks fine under the same degenerate fingerprint.
	rep, err := verify.Check(ctx, inst.P, inst.S, nil,
		verify.WithSpaceMode(verify.SpaceQuotient),
		verify.WithSymmetry(verify.IdentitySymmetry()),
		verify.WithQuotientMap(verify.MapExact))
	if err != nil {
		t.Fatalf("exact-map retry: %v", err)
	}
	if !rep.Unfair.Converges {
		t.Fatal("ring must converge")
	}
}

// TestCSRLimits pins the CSR's addressing limits on synthetic counts:
// int32 state ids and uint32 offsets. A tier past either is refused with
// the offending count named, never truncated into a corrupt graph.
func TestCSRLimits(t *testing.T) {
	for _, c := range []struct {
		count, edges int64
		want         string // "" = fits
	}{
		{math.MaxInt32, math.MaxUint32, ""},
		{math.MaxInt32 + 1, 0, "2147483648 states"},
		{1 << 20, math.MaxUint32 + 1, "4294967296 edges"},
	} {
		err := verify.CSRFits(c.count, c.edges)
		if c.want == "" {
			if err != nil {
				t.Errorf("CSRFits(%d, %d) = %v, want nil", c.count, c.edges, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("CSRFits(%d, %d) = %v, want an error naming %q", c.count, c.edges, err, c.want)
		}
	}
}

// TestOverBudgetRefusal pins the two ways an over-budget CSR fails
// instead of escalating: a forced full tier, and an auto ladder whose
// spill rung cannot open its arena. Both errors name the measured edge
// count and the budget.
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

// TestPredBuilderByteIdentity pins the density-adaptive reverse-CSR
// build: the counting-sort and atomic-scatter strategies must produce
// byte-identical offset and predecessor arrays (both source-ascending),
// so the adaptive pick is invisible to every consumer.
func TestPredBuilderByteIdentity(t *testing.T) {
	inst, err := tokenring.NewRing(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	type built struct {
		off  []uint32
		pred []int32
	}
	results := make(map[int]built)
	for builder := 0; builder <= 2; builder++ {
		restore := verify.SetPredBuilder(builder)
		rep, err := verify.Check(ctx, inst.P, inst.S, nil)
		if err != nil {
			restore()
			t.Fatalf("builder %d: %v", builder, err)
		}
		off, pred, err := rep.Space.ReverseIndex()
		restore()
		if err != nil {
			t.Fatalf("builder %d reverse index: %v", builder, err)
		}
		results[builder] = built{off, pred}
	}
	for builder := 1; builder <= 2; builder++ {
		if !reflect.DeepEqual(results[0].off, results[builder].off) {
			t.Errorf("builder %d offsets differ from adaptive", builder)
		}
		if !reflect.DeepEqual(results[0].pred, results[builder].pred) {
			t.Errorf("builder %d predecessors differ from adaptive", builder)
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
