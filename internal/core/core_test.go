package core

import (
	"os"
	"strings"
	"testing"

	"nonmask/internal/ctheory"
	"nonmask/internal/program"
	"nonmask/internal/verify"
)

// buildCounter constructs a design: closure increments x toward max, the
// single constraint pins y to 0.
func buildCounter(t *testing.T) *Design {
	t.Helper()
	b := NewDesign("counter")
	s := b.Schema()
	x := s.MustDeclare("x", program.IntRange(0, 4))
	y := s.MustDeclare("y", program.IntRange(0, 4))
	b.Closure(program.NewAction("inc", program.Closure,
		[]program.VarID{x}, []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) < 4 },
		func(st *program.State) { st.Set(x, st.Get(x)+1) }))
	yZero := program.NewPredicate("y=0", []program.VarID{y},
		func(st *program.State) bool { return st.Get(y) == 0 })
	b.Constraint(0, yZero, program.NewAction("fix-y", program.Convergence,
		[]program.VarID{y}, []program.VarID{y},
		func(st *program.State) bool { return st.Get(y) != 0 },
		func(st *program.State) { st.Set(y, 0) }))
	d, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return d
}

func TestBuildAssemblesPrograms(t *testing.T) {
	d := buildCounter(t)
	if got := len(d.ClosureProgram().Actions); got != 1 {
		t.Errorf("closure program has %d actions, want 1", got)
	}
	tp := d.TolerantProgram()
	if got := len(tp.Actions); got != 2 {
		t.Errorf("tolerant program has %d actions, want 2", got)
	}
	if err := tp.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// S = T && y=0, with T = true.
	st := d.Schema.NewState()
	if !d.S.Holds(st) {
		t.Error("S fails at y=0")
	}
	st.Set(d.Schema.MustLookup("y"), 3)
	if d.S.Holds(st) {
		t.Error("S holds at y=3")
	}
	if !d.T.IsConstTrue() {
		t.Error("default T is not true")
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("no variables", func(t *testing.T) {
		if _, err := NewDesign("empty").Build(); err == nil {
			t.Error("Build succeeded with no variables")
		}
	})
	t.Run("no constraints", func(t *testing.T) {
		b := NewDesign("d")
		b.Schema().MustDeclare("x", program.Bool())
		if _, err := b.Build(); err == nil {
			t.Error("Build succeeded with no constraints")
		}
	})
	t.Run("wrong closure kind", func(t *testing.T) {
		b := NewDesign("d")
		s := b.Schema()
		x := s.MustDeclare("x", program.Bool())
		b.Closure(program.NewAction("a", program.Convergence,
			[]program.VarID{x}, []program.VarID{x},
			func(*program.State) bool { return false }, func(*program.State) {}))
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "want closure") {
			t.Errorf("Build error = %v", err)
		}
	})
	t.Run("wrong convergence kind", func(t *testing.T) {
		b := NewDesign("d")
		s := b.Schema()
		x := s.MustDeclare("x", program.Bool())
		pred := program.NewPredicate("p", []program.VarID{x},
			func(*program.State) bool { return true })
		b.Constraint(0, pred, program.NewAction("a", program.Closure,
			[]program.VarID{x}, []program.VarID{x},
			func(*program.State) bool { return false }, func(*program.State) {}))
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "want convergence") {
			t.Errorf("Build error = %v", err)
		}
	})
}

func TestVerifyTolerant(t *testing.T) {
	d := buildCounter(t)
	res, err := d.Verify(verify.Options{})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.Tolerant() {
		t.Error("design not tolerant")
	}
	if res.Closure != nil {
		t.Errorf("closure violation: %v", res.Closure)
	}
	if !res.Unfair.Converges {
		t.Errorf("unfair convergence failed: %s", res.Unfair.Summary())
	}
	if res.Classification != verify.Nonmasking {
		t.Errorf("classification = %v", res.Classification)
	}
}

// TestVerifyReportCloseReleasesSpill checks that a spill-tier Verify
// holds its segment files until the report is closed, and leaves its
// SpillDir empty after.
func TestVerifyReportCloseReleasesSpill(t *testing.T) {
	dir := t.TempDir()
	res, err := buildCounter(t).Verify(verify.Options{SpaceMode: verify.SpaceSpill, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tolerant() {
		t.Fatalf("counter design not tolerant: %s", res.Unfair.Summary())
	}
	if n := spillHandles(t, dir); n == 0 {
		t.Fatal("spill-mode Verify holds no file in its SpillDir")
	}
	if err := res.Report.Close(); err != nil {
		t.Fatal(err)
	}
	if n := spillHandles(t, dir); n != 0 {
		t.Errorf("%d files in SpillDir still held after Report.Close", n)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("SpillDir holds %d entries after Report.Close", len(entries))
	}
}

// spillHandles counts dir's entries plus this process's open descriptors
// on files in it: segments opened with O_TMPFILE have no entry.
func spillHandles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := len(entries)
	fds, _ := os.ReadDir("/proc/self/fd")
	for _, fd := range fds {
		if target, err := os.Readlink("/proc/self/fd/" + fd.Name()); err == nil && strings.HasPrefix(target, dir+"/") {
			n++
		}
	}
	return n
}

func TestValidatePicksTheorem(t *testing.T) {
	d := buildCounter(t)
	r, all, err := d.Validate(verify.Exhaustive, verify.Options{})
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Single constraint whose action reads only what it writes: the graph
	// is a self-loop — not an out-tree, so Theorem 2 is the first to apply.
	if r == nil || r.Theorem != ctheory.Theorem2 {
		t.Errorf("validated by %v (reports %d), want Theorem 2", r, len(all))
	}
}

func TestFaultSpanSetting(t *testing.T) {
	b := NewDesign("spanned")
	s := b.Schema()
	x := s.MustDeclare("x", program.IntRange(0, 4))
	T := program.NewPredicate("x<=2", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) <= 2 })
	b.FaultSpan(T)
	xZero := program.NewPredicate("x=0", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == 0 })
	b.Constraint(0, xZero, program.NewAction("fix", program.Convergence,
		[]program.VarID{x}, []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) != 0 },
		func(st *program.State) { st.Set(x, 0) }))
	d, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	st := d.Schema.NewState()
	st.Set(x, 3)
	if d.T.Holds(st) {
		t.Error("T holds at x=3")
	}
	if d.S.Holds(st) {
		t.Error("S holds at x=3")
	}
	res, err := d.Verify(verify.Options{})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.Tolerant() {
		t.Error("design not tolerant")
	}
}

func TestVerifyResultFairFallback(t *testing.T) {
	// A design convergent only under fairness: a stuttering closure action
	// plus the productive convergence action.
	b := NewDesign("stutter")
	s := b.Schema()
	x := s.MustDeclare("x", program.IntRange(0, 1))
	b.Closure(program.NewAction("noop", program.Closure,
		[]program.VarID{x}, nil,
		func(st *program.State) bool { return st.Get(x) == 0 },
		func(*program.State) {}))
	xOne := program.NewPredicate("x=1", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == 1 })
	b.Constraint(0, xOne, program.NewAction("go", program.Convergence,
		[]program.VarID{x}, []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) != 1 },
		func(st *program.State) { st.Set(x, 1) }))
	d, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := d.Verify(verify.Options{})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Unfair.Converges {
		t.Error("stutter design converges unfairly?")
	}
	if res.FairOnly == nil || !res.FairOnly.Converges {
		t.Error("fair fallback did not converge")
	}
	if !res.Tolerant() {
		t.Error("fairly-convergent design not reported tolerant")
	}
}
