package gcl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nonmask/internal/ctheory"
	"nonmask/internal/program"
	"nonmask/internal/protocols/threestate"
	"nonmask/internal/verify"
)

func mustLoad(t *testing.T, src string) *Module {
	t.Helper()
	m, err := Load(src)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return m
}

func loadTestdata(t *testing.T, name string) *Module {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return mustLoad(t, string(src))
}

func TestCompileCounter(t *testing.T) {
	m := mustLoad(t, `
program counter;
var x : 0..4;
invariant DONE : x = 4;
action step convergence establishes DONE : x != 4 -> x := x + 1;
`)
	if m.Name != "counter" || m.Schema.Len() != 1 {
		t.Fatalf("module = %+v", m)
	}
	st := m.Schema.NewState()
	a := m.Program.Actions[0]
	if !a.Enabled(st) {
		t.Fatal("step disabled at x=0")
	}
	next := a.Apply(st)
	if next.Get(0) != 1 {
		t.Errorf("after step x = %d", next.Get(0))
	}
	if m.S.Holds(st) {
		t.Error("S holds at x=0")
	}
	st.Set(0, 4)
	if !m.S.Holds(st) {
		t.Error("S fails at x=4")
	}
	if m.Design == nil {
		t.Error("design not assembled")
	}
}

func TestCompileEnumAndBool(t *testing.T) {
	m := mustLoad(t, `
program eb;
var c : {green, red};
var b : bool;
invariant I : c = green && !b;
action a convergence establishes I : c = red || b -> c, b := green, false;
`)
	st := m.Schema.NewState()
	if !m.S.Holds(st) {
		t.Error("S fails at green/false")
	}
	st.Set(0, 1) // red
	if m.S.Holds(st) {
		t.Error("S holds at red")
	}
	a := m.Program.Actions[0]
	if !a.Enabled(st) {
		t.Fatal("fix disabled")
	}
	if next := a.Apply(st); next.Get(0) != 0 || next.Get(1) != 0 {
		t.Errorf("fix result = %s", next)
	}
}

func TestCompileParallelAssignment(t *testing.T) {
	// Swap relies on old-state evaluation of the RHS.
	m := mustLoad(t, `
program swap;
var x : 0..9;
var y : 0..9;
invariant I : true;
action sw convergence establishes I : false -> x, y := y, x;
action doit closure : x != y -> x, y := y, x;
`)
	st := m.Schema.NewState()
	st.Set(0, 3)
	st.Set(1, 7)
	var doit *program.Action
	for _, a := range m.Program.Actions {
		if a.Name == "doit" {
			doit = a
		}
	}
	next := doit.Apply(st)
	if next.Get(0) != 7 || next.Get(1) != 3 {
		t.Errorf("swap = %s", next)
	}
}

func TestCompileQuantifiers(t *testing.T) {
	m := mustLoad(t, `
program q;
var c[4] : bool;
invariant ALL : forall k in 0..3 : (c[k]);
action any convergence establishes ALL : exists k in 0..3 : (!c[k]) -> c[0], c[1], c[2], c[3] := true, true, true, true;
`)
	st := m.Schema.NewState() // all false
	if m.S.Holds(st) {
		t.Error("forall holds with all false")
	}
	a := m.Program.Actions[0]
	if !a.Enabled(st) {
		t.Error("exists fails with all false")
	}
	next := a.Apply(st)
	if !m.S.Holds(next) {
		t.Error("forall fails with all true")
	}
	if a.Enabled(next) {
		t.Error("exists holds with all true")
	}
}

func TestCompileConstArraysAndParams(t *testing.T) {
	m := mustLoad(t, `
program arr;
const N = 3;
const P = [0, 0, 1];
var d[N] : 0..5;
invariant R for j in 1..N-1 : d[j] = d[P[j]] + 1;
action fix for j in 1..N-1 convergence establishes R : d[j] != d[P[j]] + 1 -> d[j] := d[P[j]] + 1;
`)
	if m.Set.Len() != 2 {
		t.Fatalf("constraints = %d, want 2", m.Set.Len())
	}
	if got := len(m.Program.Actions); got != 2 {
		t.Fatalf("actions = %d, want 2", got)
	}
	// Convergence establishes S from d = [0,0,0]: fix(1): d1 := 1,
	// fix(2): d2 := d1+1 = 2.
	st := m.Schema.NewState()
	for _, a := range m.Program.Actions {
		if a.Enabled(st) {
			st = a.Apply(st)
		}
	}
	for _, a := range m.Program.Actions {
		if a.Enabled(st) {
			st = a.Apply(st)
		}
	}
	if !m.S.Holds(st) {
		t.Errorf("S fails after fixes: %s", st)
	}
}

func TestCompileReadWriteSets(t *testing.T) {
	m := mustLoad(t, `
program rw;
var a : 0..3;
var b : 0..3;
var c : 0..3;
invariant I : a = 0;
action f convergence establishes I : a != 0 -> a := 0;
action g closure : a < b -> c := b;
`)
	var g *program.Action
	for _, a := range m.Program.Actions {
		if a.Name == "g" {
			g = a
		}
	}
	aID := m.Schema.MustLookup("a")
	bID := m.Schema.MustLookup("b")
	cID := m.Schema.MustLookup("c")
	wantReads := []program.VarID{aID, bID}
	if len(g.Reads) != 2 || g.Reads[0] != wantReads[0] || g.Reads[1] != wantReads[1] {
		t.Errorf("g.Reads = %v, want %v", g.Reads, wantReads)
	}
	if len(g.Writes) != 1 || g.Writes[0] != cID {
		t.Errorf("g.Writes = %v, want [%d]", g.Writes, cID)
	}
	// Audit confirms the sets dynamically.
	rng := rand.New(rand.NewSource(1))
	if err := m.Program.Audit(rng, 200); err != nil {
		t.Error(err)
	}
}

func TestCompileErrors(t *testing.T) {
	tests := []struct {
		name, src, substr string
	}{
		{"undefined var", "program p; action a : zz = 1 -> skip;", "undefined name"},
		{"type mismatch and", "program p; var x : 0..3; action a : x && x > 1 -> skip;", "bool operands"},
		{"type mismatch cmp", "program p; var b : bool; action a : b < true -> skip;", "int operands"},
		{"eq across types", "program p; var b : bool; var x : 0..3; action a : b = x -> skip;", "compares"},
		{"guard not bool", "program p; var x : 0..3; action a : x + 1 -> skip;", "must be bool"},
		{"assign bool to int", "program p; var x : 0..3; action a : true -> x := true;", "bool to int"},
		{"assign int to bool", "program p; var b : bool; action a : true -> b := 3;", "to bool variable"},
		{"const index oob", "program p; const A = [1, 2]; var x : 0..3; action a : A[5] = 1 -> skip;", "out of range"},
		{"var index oob", "program p; var c[2] : bool; action a : c[7] -> skip;", "out of range"},
		{"dup variable", "program p; var x : bool; var x : bool;", "redeclared"},
		{"dup const", "program p; const N = 1; const N = 2;", "redeclared"},
		{"enum conflict", "program p; var a : {g, r}; var b : {r, g};", "bound to"},
		{"var in const expr", "program p; var x : 0..3; var y[x] : bool;", "not allowed in constant"},
		{"establish unknown", "program p; var x : bool; action a convergence establishes Z : x -> x := false;", "unknown invariant"},
		{"establish on closure", "program p; var x : bool; invariant I : x; action a establishes I : !x -> x := true;", "only convergence"},
		{"double establish", "program p; var x : bool; invariant I : x; action a convergence establishes I : !x -> x := true; action b convergence establishes I : !x -> x := true;", "two actions"},
		{"empty range type", "program p; var x : 5..2;", "empty range"},
		{"nonpositive array", "program p; const N = 0; var c[N] : bool;", "non-positive"},
		{"double assign", "program p; var x : 0..3; action a : true -> x, x := 1, 2;", "assigned twice"},
		{"quant shadows param", "program p; var c[3] : bool; action a for j in 0..2 : forall j in 0..2 : (c[j]) -> skip;", "shadows"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Load(tt.src)
			if err == nil {
				t.Fatal("Load succeeded")
			}
			if !strings.Contains(err.Error(), tt.substr) {
				t.Errorf("error %q, want substring %q", err, tt.substr)
			}
		})
	}
}

// TestDiffusingGCLStabilizes loads the paper's Section 5.1 program from
// testdata and model-checks it end to end: Theorem 1 applies and the
// program is stabilizing.
func TestDiffusingGCLStabilizes(t *testing.T) {
	m := loadTestdata(t, "diffusing.gcl")
	if m.Design == nil {
		t.Fatal("design not assembled")
	}
	r, _, err := m.Design.Validate(verify.Projected, verify.Options{})
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if r == nil || r.Theorem != ctheory.Theorem1 {
		t.Fatalf("validated by %v, want Theorem 1", r)
	}
	res, err := m.Design.Verify(verify.Options{})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Closure != nil || !res.Unfair.Converges {
		t.Fatalf("not stabilizing: closure=%v conv=%s", res.Closure, res.Unfair.Summary())
	}
}

// TestTokenRingGCLStabilizes loads the Section 7.1 layered program and
// checks Theorem 3 applicability plus ground-truth stabilization.
func TestTokenRingGCLStabilizes(t *testing.T) {
	m := loadTestdata(t, "tokenring.gcl")
	if m.Design == nil {
		t.Fatal("design not assembled")
	}
	r, all, err := m.Design.Validate(verify.Exhaustive, verify.Options{})
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if r == nil {
		for _, rep := range all {
			t.Logf("%s", rep)
		}
		t.Fatal("no theorem applies")
	}
	if r.Theorem != ctheory.Theorem3 {
		t.Errorf("validated by %v, want Theorem 3", r.Theorem)
	}
	res, err := m.Design.Verify(verify.Options{})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Closure != nil || !res.Unfair.Converges {
		t.Fatalf("not stabilizing: closure=%v conv=%s", res.Closure, res.Unfair.Summary())
	}
}

// TestXYZGCL loads the Section 4 example and checks Theorem 1.
func TestXYZGCL(t *testing.T) {
	m := loadTestdata(t, "xyz.gcl")
	if m.Design == nil {
		t.Fatal("design not assembled")
	}
	r, _, err := m.Design.Validate(verify.Exhaustive, verify.Options{})
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if r == nil || r.Theorem != ctheory.Theorem1 {
		t.Fatalf("validated by %v, want Theorem 1", r)
	}
}

// TestGCLDiffusingMatchesGoDiffusing cross-checks the two front ends: the
// gcl program and the Go-constructed design have the same number of
// actions, constraints, and the same invariant truth value on sampled
// states (modulo variable order, which matches by construction).
func TestGCLDiffusingMatchesGoDiffusing(t *testing.T) {
	m := loadTestdata(t, "diffusing.gcl")
	if got, want := len(m.Program.Actions), 2*4+5+1; got != want {
		// initiate + 4 propagate + 5 reflect + 4 fix = 14.
		t.Logf("action count %d (informational, want %d)", got, want)
	}
	if m.Set.Len() != 4 {
		t.Errorf("constraints = %d, want 4", m.Set.Len())
	}
	count, ok := m.Schema.StateCount()
	if !ok || count != 1024 {
		t.Errorf("state count = %d, want 4^5 = 1024", count)
	}
}

func TestModuleWithoutEstablishesHasNoDesign(t *testing.T) {
	m := mustLoad(t, `
program free;
var x : 0..3;
invariant I : x = 0;
action fix convergence : x != 0 -> x := 0;
`)
	if m.Design != nil {
		t.Error("design assembled without establishes pairing")
	}
	if m.Program == nil || m.S == nil {
		t.Error("program/S missing")
	}
}

func TestFaultspanCompiles(t *testing.T) {
	m := mustLoad(t, `
program spanned;
var x : 0..9;
faultspan : x <= 3;
invariant I : x = 0;
action fix convergence establishes I : x != 0 && x <= 3 -> x := 0;
`)
	st := m.Schema.NewState()
	st.Set(0, 5)
	if m.T.Holds(st) {
		t.Error("T holds at x=5")
	}
	res, err := m.Design.Verify(verify.Options{})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.Tolerant() {
		t.Error("spanned design not tolerant")
	}
}

func TestRuntimeIndexPanics(t *testing.T) {
	m := mustLoad(t, `
program oob;
var c[3] : 0..3;
var i : 0..9;
invariant I : true;
action probe convergence establishes I : false -> skip;
action a closure : c[i] = 0 -> i := 0;
`)
	var a *program.Action
	for _, act := range m.Program.Actions {
		if act.Name == "a" {
			a = act
		}
	}
	st := m.Schema.NewState()
	st.Set(m.Schema.MustLookup("i"), 7)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range dynamic index did not panic")
		}
	}()
	a.Enabled(st)
}

// TestThreeStateGCLMatchesGoConstruction cross-validates the gcl compiler
// against the Go-built protocol: the transition relations of
// testdata/threestate.gcl and internal/protocols/threestate must agree on
// every state. (The invariant in the .gcl file is a placeholder — the
// exactly-one-privilege predicate is not first-order expressible in gcl's
// little expression language; the Go instance supplies it.)
func TestThreeStateGCLMatchesGoConstruction(t *testing.T) {
	m := loadTestdata(t, "threestate.gcl")
	goInst, err := threestate.New(4)
	if err != nil {
		t.Fatalf("threestate.New: %v", err)
	}
	if m.Schema.Len() != goInst.P.Schema.Len() {
		t.Fatalf("schema sizes differ: %d vs %d", m.Schema.Len(), goInst.P.Schema.Len())
	}
	count, _ := m.Schema.StateCount()
	for i := int64(0); i < count; i++ {
		gclSt := m.Schema.StateAt(i)
		goSt := goInst.P.Schema.StateAt(i)
		a := successorIndexSet(m.Program, gclSt)
		b := successorIndexSet(goInst.P, goSt)
		if len(a) != len(b) {
			t.Fatalf("state %s: %d vs %d successors", gclSt, len(a), len(b))
		}
		for k := range a {
			if !b[k] {
				t.Fatalf("state %s: successor sets differ", gclSt)
			}
		}
	}
	// And the gcl program stabilizes to the Go instance's invariant.
	sp, err := verify.NewSpaceContext(context.Background(), m.Program, goInst.S, program.True(), verify.Options{})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	if res := sp.CheckConvergence(); !res.Converges {
		t.Fatalf("gcl three-state not stabilizing: %s", res.Summary())
	}
}

func successorIndexSet(p *program.Program, st *program.State) map[int64]bool {
	out := map[int64]bool{}
	for _, a := range p.Actions {
		if a.Guard(st) {
			out[p.Schema.Index(a.Apply(st))] = true
		}
	}
	return out
}

// TestCompiledActionAllocsNothing pins the hot-loop contract of compiled
// guards and bodies: the checker runs them at every state, so neither may
// allocate. The body is a parallel assignment (a swap), whose right-hand
// sides must all read the old state.
func TestCompiledActionAllocsNothing(t *testing.T) {
	m := mustLoad(t, `
program swap;
var x : 0..3;
var y : 0..3;
invariant SAME : x = y;
action swap closure : x != y && x + y < 5 -> x, y := y, x;
`)
	a := m.Program.Actions[0]
	st := m.Schema.NewState()
	st.Set(0, 1)
	st.Set(1, 2)
	if !a.Guard(st) {
		t.Fatal("swap disabled at x=1, y=2")
	}
	a.Body(st)
	if st.Get(0) != 2 || st.Get(1) != 1 {
		t.Fatalf("swap gave %s, want x=2, y=1", st)
	}
	if n := testing.AllocsPerRun(100, func() {
		if a.Guard(st) {
			a.Body(st)
		}
	}); n != 0 {
		t.Errorf("compiled guard and body allocate %.1f times per run, want 0", n)
	}

	// Quantified guards, with an index on the bound variable, run every
	// body copy here: no value of k makes the forall false early.
	q := mustLoad(t, `
program quant;
var c[4] : 0..3;
var x : 0..3;
invariant I : true;
action probe convergence establishes I : false -> skip;
action scan closure : (forall k in 0..3 : (c[k] <= x || k = 0)) && !(exists k in 1..3 : (c[k] = 3)) -> x := c[0];
`)
	scan := q.Program.Actions[1]
	qs := q.Schema.NewState()
	qs.Set(q.Schema.MustLookup("x"), 2)
	if !scan.Guard(qs) {
		t.Fatalf("scan disabled at %s", qs)
	}
	if n := testing.AllocsPerRun(100, func() {
		if scan.Guard(qs) {
			scan.Body(qs)
		}
	}); n != 0 {
		t.Errorf("compiled forall guard allocates %.1f times per run, want 0", n)
	}
}

// TestLoadCompilesDeadOperandsWithoutClosures bounds what loading the
// diffusing program allocates. Operands a constant decides away (the
// right side of `P[k] != j || …` in the reflect guards, quantifier copies
// after the deciding one) are type-checked and declare their reads, but
// get no closures; compiling them in full took 1579 allocations per load
// (1642 under -race). Sorting variable sets without sort.Slice's boxing
// and probing index constness without formatting an error brought a load
// to 1160 (1175 under -race).
func TestLoadCompilesDeadOperandsWithoutClosures(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "diffusing.gcl"))
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := Load(string(src)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per load", n)
	if n > 1200 {
		t.Errorf("Load(diffusing.gcl) allocates %.0f times, want at most 1200", n)
	}
}

// TestFoldedGuardsMatchTheirMeaning evaluates guards whose quantifier
// copies fold in every way — dropped, deciding the quantifier, left to
// the state — at every state, against the same guard written in Go.
func TestFoldedGuardsMatchTheirMeaning(t *testing.T) {
	for _, tc := range []struct {
		guard string
		want  func(c []int32) bool
	}{
		{"forall k in 0..2 : (k = 1 || c[k] < 2)", func(c []int32) bool { return c[0] < 2 && c[2] < 2 }},
		{"exists k in 0..2 : (k != 1 && c[k] = 3)", func(c []int32) bool { return c[0] == 3 || c[2] == 3 }},
		{"forall k in 0..2 : (c[k] > 0 && k < 2)", func([]int32) bool { return false }},
		{"exists k in 0..2 : (k = 1 || c[k] = 3)", func([]int32) bool { return true }},
		{"forall k in 0..2 : ((k = 0 && c[k] = 1) || (k > 0 && c[k] = c[k-1]))",
			func(c []int32) bool { return c[0] == 1 && c[1] == 1 && c[2] == 1 }},
		{"!(forall k in 1..0 : (c[k] = 9)) || c[0] = 2", func(c []int32) bool { return c[0] == 2 }},
		{"exists k in 0..2 : (P[k] = 2 && c[k] != P[k])", func(c []int32) bool { return c[0] != 2 || c[2] != 2 }},
		{"forall k in 0..2 : (exists j in 0..2 : (j != k && c[j] = c[k]))",
			func(c []int32) bool { return c[0] == c[1] && c[1] == c[2] || c[0] == c[1] && c[2] == c[0] }},
	} {
		m := mustLoad(t, `
program fold;
const P = [2, 0, 2];
var c[3] : 0..3;
invariant I : true;
action probe convergence establishes I : false -> skip;
action g closure : `+tc.guard+` -> skip;
`)
		g := m.Program.Actions[1]
		st := m.Schema.NewState()
		for {
			if got, want := g.Guard(st), tc.want(st.Values()); got != want {
				t.Errorf("%s at %s = %v, want %v", tc.guard, st, got, want)
			}
			if !nextValues(m.Schema, st) {
				break
			}
		}
	}
}

// nextValues steps st to the next state of its schema, the last variable
// fastest, and reports false once every state was seen.
func nextValues(s *program.Schema, st *program.State) bool {
	for v := program.VarID(s.Len() - 1); v >= 0; v-- {
		if d := s.Spec(v).Dom; st.Get(v) < d.Max {
			st.Set(v, st.Get(v)+1)
			return true
		}
		st.Set(v, s.Spec(v).Dom.Min)
	}
	return false
}

// TestQuantifierUnrollKeepsReadsAndRuntimeChecks pins what unrolling a
// quantifier leaves as it was: an index on the bound variable declares
// its whole array (also over an empty range) and is bounds-checked when
// evaluated, not at compile time. A range that would unroll past the
// copy bound is refused at compile time.
func TestQuantifierUnrollKeepsReadsAndRuntimeChecks(t *testing.T) {
	m := mustLoad(t, `
program unroll;
var c[3] : 0..3;
var d[2] : 0..3;
var x : 0..3;
invariant I : true;
action probe convergence establishes I : false -> skip;
action over closure : forall k in 0..3 : (c[k] = 0) -> x := 1;
action empty closure : exists k in 3..2 : (d[k] = 9) -> x := 2;
`)
	over, empty := m.Program.Actions[1], m.Program.Actions[2]
	c0, d0 := m.Schema.MustLookup("c[0]"), m.Schema.MustLookup("d[0]")
	if want := []program.VarID{c0, c0 + 1, c0 + 2}; !slices.Equal(over.Reads, want) {
		t.Errorf("over.Reads = %v, want all of c %v", over.Reads, want)
	}
	if want := []program.VarID{d0, d0 + 1}; !slices.Equal(empty.Reads, want) {
		t.Errorf("empty.Reads = %v, want all of d %v", empty.Reads, want)
	}
	st := m.Schema.NewState()
	if empty.Guard(st) {
		t.Error("exists over an empty range holds")
	}
	st.Set(c0+1, 2)
	if over.Guard(st) {
		t.Error("forall holds with c[1] = 2")
	}
	st.Set(c0+1, 0)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "index 3 out of range") {
				t.Errorf("index 3 of c evaluated to panic %v, want out of range", r)
			}
		}()
		over.Guard(st)
	}()

	// A copy folded to true is dropped, but the copies left still check
	// their index when evaluated: only c[2] = 0 reaches c[3].
	f := mustLoad(t, `
program fold;
var c[3] : 0..3;
invariant I : true;
action probe convergence establishes I : false -> skip;
action g closure : forall k in 0..3 : (k < 2 || c[k] = 0) -> skip;
`)
	g, c2 := f.Program.Actions[1], f.Schema.MustLookup("c[2]")
	st = f.Schema.NewState()
	st.Set(c2, 1)
	if g.Guard(st) {
		t.Error("forall holds with c[2] = 1")
	}
	st.Set(c2, 0)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "index 3 out of range") {
				t.Errorf("index 3 of c evaluated to panic %v, want out of range", r)
			}
		}()
		g.Guard(st)
	}()

	for _, src := range []string{
		"forall k in 0..65536 : (x = 0)",
		"forall i in 0..299 : (exists j in 0..299 : (i = j))",
	} {
		_, err := Load("program big;\nvar x : 0..3;\ninvariant I : " + src + ";\n")
		if err == nil || !strings.Contains(err.Error(), "copies of its body") {
			t.Errorf("%s: err = %v, want the unroll bound", src, err)
		}
	}
}

// oversizedSources are short sources whose parameter ranges, arrays or
// quantifier nests unroll far past the module's expansion budget, each
// with the declaration its refusal must name.
var oversizedSources = []struct{ src, want string }{
	{"program big;\nvar x : 0..3;\naction a for i in 0..2147483647 closure : x = 0 -> x := 1;\n", `action "a"`},
	{"program big;\nvar x : 0..3;\naction a for i in 1..2147483647 closure : x = 0 -> x := 1;\n", `action "a"`},
	{"program big;\nvar x[2147483647] : bool;\n", `array "x"`},
	{"program big;\nvar x : 0..3;\naction a for i in 0..3000000 closure : x = 0 -> x := 1;\n", `action "a"`},
	{"program big;\nvar x : 0..3;\ninvariant I for i in 0..3000000 : x = i;\n", `invariant "I"`},
	{"program big;\nvar x : 0..3;\naction a for i in 0..65535 closure : (forall k in 0..65535 : (x != k)) -> x := 1;\n", `action "a`},
	{"program big;\nvar x : 0..3;\naction a for i in 0..4095 closure : (forall k in 0..15 : (x != k)) -> x := 1;\n", "copies of its body"},
	{"program big;\nvar x : 0..3;\ninvariant I : forall k in 0..999 : (" + strings.Repeat("x = 0 && ", 100) + "true);\n", "copies of its body"},
	{"program big;\nvar x : 0..3;\ninvariant I for i in 0..999 : " + strings.Repeat("x = i && ", 100) + "true;\n", `predicate "I[`},
	{"program big;\nvar x : 0..3;\ninvariant I : forall i in 0..4095 : (exists j in 0..1023 : (x = i + j));\n", "copies of its body"},
}

// TestLoadRefusesOversizedExpansion pins the module-wide expansion
// budget: every oversized source is refused with a positioned error
// naming the declaration, rather than panicking in an int32 overflow or
// exhausting memory.
func TestLoadRefusesOversizedExpansion(t *testing.T) {
	for _, c := range oversizedSources {
		_, err := Load(c.src)
		var gerr *Error
		if !errors.As(err, &gerr) || gerr.Pos.Line == 0 || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want a positioned error naming %s", c.src, err, c.want)
		}
	}
}
