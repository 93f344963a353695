package verify

import (
	"context"
	"strings"
	"testing"

	"nonmask/internal/program"
)

// counter builds the program over x:0..max with a single closure action
// "x < target -> x := x+1" and S = (x = target).
func counter(t *testing.T, max, target int32) (*program.Program, *program.Predicate, program.VarID) {
	t.Helper()
	s := program.NewSchema()
	x := s.MustDeclare("x", program.IntRange(0, max))
	p := program.New("counter", s)
	p.Add(program.NewAction("inc", program.Closure,
		[]program.VarID{x}, []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) < target },
		func(st *program.State) { st.Set(x, st.Get(x)+1) }))
	S := program.NewPredicate("x=target", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == target })
	return p, S, x
}

func TestNewSpaceBasics(t *testing.T) {
	p, S, _ := counter(t, 5, 5)
	sp, err := NewSpaceContext(context.Background(), p, S, program.True(), Options{})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	if sp.Count != 6 {
		t.Errorf("Count = %d, want 6", sp.Count)
	}
	if sp.CountS() != 1 {
		t.Errorf("CountS = %d, want 1", sp.CountS())
	}
	if sp.CountT() != 6 {
		t.Errorf("CountT = %d, want 6", sp.CountT())
	}
	if !sp.InS(5) || sp.InS(0) {
		t.Error("InS wrong")
	}
	if got := sp.State(3).Get(0); got != 3 {
		t.Errorf("State(3) x = %d", got)
	}
}

func TestNewSpaceRejectsHugeSpace(t *testing.T) {
	s := program.NewSchema()
	s.MustDeclareArray("x", 8, program.IntRange(0, 999))
	p := program.New("huge", s)
	_, err := NewSpaceContext(context.Background(), p, program.True(), program.True(), Options{})
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("NewSpace on huge space: %v", err)
	}
}

func TestNewSpaceRejectsSNotSubsetT(t *testing.T) {
	p, S, x := counter(t, 5, 5)
	T := program.NewPredicate("x<3", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) < 3 })
	_, err := NewSpaceContext(context.Background(), p, S, T, Options{})
	if err == nil || !strings.Contains(err.Error(), "S does not imply T") {
		t.Errorf("NewSpace with S ⊄ T: %v", err)
	}
}

func TestNewSpaceRejectsUndeclaredFootprintVariable(t *testing.T) {
	p, S, x := counter(t, 5, 5)
	p.Add(program.NewAction("stray", program.Convergence,
		[]program.VarID{x}, []program.VarID{x + 1},
		func(st *program.State) bool { return false },
		func(*program.State) {}))
	_, err := NewSpaceContext(context.Background(), p, S, program.True(), Options{})
	if err == nil || !strings.Contains(err.Error(), `action "stray"`) {
		t.Errorf("NewSpace with a write outside the schema: %v", err)
	}
}

func TestCheckClosedHolds(t *testing.T) {
	p, S, x := counter(t, 5, 5)
	sp, err := NewSpaceContext(context.Background(), p, S, program.True(), Options{})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	// x >= 0 is trivially closed; x <= 5 closed since target = max.
	le := program.NewPredicate("x<=5", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) <= 5 })
	if v := sp.CheckClosed(le, nil); v != nil {
		t.Errorf("closed predicate reported violation: %v", v)
	}
	// S itself is closed: inc is disabled at x=5.
	if v := sp.CheckClosure(); v != nil {
		t.Errorf("CheckClosure: %v", v)
	}
}

func TestCheckClosedViolation(t *testing.T) {
	p, S, x := counter(t, 5, 5)
	sp, err := NewSpaceContext(context.Background(), p, S, program.True(), Options{})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	// x <= 2 is not closed: inc maps x=2 to x=3.
	le2 := program.NewPredicate("x<=2", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) <= 2 })
	v := sp.CheckClosed(le2, nil)
	if v == nil {
		t.Fatal("open predicate reported closed")
	}
	if v.State.Get(x) != 2 || v.Next.Get(x) != 3 || v.Action.Name != "inc" {
		t.Errorf("violation = %+v", v)
	}
	if !strings.Contains(v.Error(), "inc") {
		t.Errorf("Error() = %q", v.Error())
	}
	// Restricted to within x<=1, the same predicate IS closed.
	within := program.NewPredicate("x<=1", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) <= 1 })
	if v := sp.CheckClosed(le2, within); v != nil {
		t.Errorf("restricted closure reported violation: %v", v)
	}
}

func TestClassify(t *testing.T) {
	p, S, _ := counter(t, 5, 5)

	masking, err := NewSpaceContext(context.Background(), p, S, S, Options{})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	if got := masking.Classify(); got != Masking {
		t.Errorf("Classify = %v, want Masking", got)
	}

	nonmasking, err := NewSpaceContext(context.Background(), p, S, program.True(), Options{})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	if got := nonmasking.Classify(); got != Nonmasking {
		t.Errorf("Classify = %v, want Nonmasking", got)
	}

	if Masking.String() != "masking" || Nonmasking.String() != "nonmasking" {
		t.Error("Classification.String wrong")
	}
}
