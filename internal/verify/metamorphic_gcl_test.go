// Metamorphic tests of the CSR successor index: whether the index lives
// in RAM (the default) or in spill segments the auto ladder escalated to
// (a budget too small for any in-RAM edge array), and how many workers
// consume it, is a pure capacity choice — every verdict, witness, and
// step metric on every checked-in GCL model must be bit-identical across
// all of them.
package verify_test

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"nonmask/internal/gcl"
	"nonmask/internal/verify"
)

// gclModels compiles every testdata/*.gcl model at the repo root.
func gclModels(t *testing.T) map[string]*gcl.Module {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.gcl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no testdata/*.gcl models found")
	}
	models := make(map[string]*gcl.Module, len(paths))
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		file, err := gcl.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: parse: %v", path, err)
		}
		m, err := gcl.Compile(file)
		if err != nil {
			t.Fatalf("%s: compile: %v", path, err)
		}
		models[filepath.Base(path)] = m
	}
	return models
}

// checkEscalated runs Check on SpaceAuto with a 1-byte in-RAM CSR
// budget and TMPDIR pointed at a fresh directory, so every in-RAM tier is
// refused and the ladder must land on spill in os.TempDir(). It asserts
// the landing, closes the report, and requires Close to leave the
// directory empty; the returned report's results stay readable.
func checkEscalated(t *testing.T, m *gcl.Module, options ...verify.Option) *verify.Report {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	defer verify.SetSuccIndexBudget(1)()
	rep, err := verify.Check(context.Background(), m.Program, m.S, m.T, options...)
	if err != nil {
		t.Fatalf("escalated check: %v", err)
	}
	if mode := rep.Space.Mode(); mode != verify.SpaceSpill {
		t.Fatalf("auto over budget landed on %v, want spill", mode)
	}
	if seg, _ := rep.Space.SpillStats(); seg == 0 {
		t.Fatal("escalated space materialized no segment bytes")
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("spill dir after Close: %v entries, err %v", len(ents), err)
	}
	return rep
}

// TestSuccIndexMetamorphic cross-runs every GCL model through the in-RAM
// CSR across worker counts {1, 4, NumCPU}, and through the auto ladder's
// forced escalation to spill (directly, and via an identity quotient),
// and requires observationally identical reports: verdicts, witnesses,
// WorstSteps, MeanSteps.
func TestSuccIndexMetamorphic(t *testing.T) {
	ctx := context.Background()
	for name, m := range gclModels(t) {
		t.Run(name, func(t *testing.T) {
			base, err := verify.Check(ctx, m.Program, m.S, m.T, verify.WithWorkers(1))
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if base.Space.Mode() != verify.SpaceFull {
				t.Fatalf("baseline ran on %v, want full", base.Space.Mode())
			}

			// Same engine, more workers.
			for _, w := range []int{4, runtime.NumCPU()} {
				rep, err := verify.Check(ctx, m.Program, m.S, m.T, verify.WithWorkers(w))
				if err != nil {
					t.Fatalf("Workers=%d: %v", w, err)
				}
				compareReports(t, base, rep)
			}

			// Forced escalation: full → spill, and full → quotient → spill.
			for _, w := range []int{1, 4} {
				compareReports(t, base, checkEscalated(t, m, verify.WithWorkers(w)))
			}
			rep := checkEscalated(t, m, verify.WithSymmetry(verify.IdentitySymmetry()))
			if reps, _ := rep.Space.QuotientStats(); reps != base.Space.Count {
				t.Fatalf("quotient → spill has %d reps, want %d", reps, base.Space.Count)
			}
			compareReports(t, base, rep)
		})
	}
}
