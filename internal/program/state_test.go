package program

import (
	"math/rand"
	"testing"
)

func twoVarSchema(t *testing.T) (*Schema, VarID, VarID) {
	t.Helper()
	s := NewSchema()
	x := s.MustDeclare("x", IntRange(0, 9))
	y := s.MustDeclare("y", Bool())
	return s, x, y
}

func TestStateGetSet(t *testing.T) {
	s, x, y := twoVarSchema(t)
	st := s.NewState()
	st.Set(x, 7)
	st.SetBool(y, true)
	if st.Get(x) != 7 {
		t.Errorf("Get(x) = %d, want 7", st.Get(x))
	}
	if !st.Bool(y) {
		t.Error("Bool(y) = false, want true")
	}
	st.SetBool(y, false)
	if st.Bool(y) {
		t.Error("Bool(y) = true, want false")
	}
}

func TestStateSetPanicsOutOfDomain(t *testing.T) {
	s, x, _ := twoVarSchema(t)
	st := s.NewState()
	defer func() {
		if recover() == nil {
			t.Error("Set out of domain did not panic")
		}
	}()
	st.Set(x, 10)
}

// TestStateSetPanicMessage pins the panic value of an out-of-domain Set
// and SetBool: an error whose message names the value, the domain and
// the variable.
func TestStateSetPanicMessage(t *testing.T) {
	s, x, _ := twoVarSchema(t)
	e := s.MustDeclare("e", Enum("red", "green"))
	z := s.MustDeclare("z", IntRange(2, 3))
	for _, c := range []struct {
		set  func(*State)
		want string
	}{
		{func(st *State) { st.Set(x, 10) }, "program: value 10 outside domain 0..9 of x"},
		{func(st *State) { st.Set(x, -1) }, "program: value -1 outside domain 0..9 of x"},
		{func(st *State) { st.Set(e, 2) }, "program: value 2 outside domain {red, green} of e"},
		{func(st *State) { st.SetBool(z, false) }, "program: value 0 outside domain 2..3 of z"},
	} {
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok {
					t.Fatalf("panic value is not an error")
				}
				if got := err.Error(); got != c.want {
					t.Errorf("panic message %q, want %q", got, c.want)
				}
			}()
			c.set(s.NewState())
		}()
	}
}

func TestStateCloneIsIndependent(t *testing.T) {
	s, x, _ := twoVarSchema(t)
	st := s.NewState()
	st.Set(x, 3)
	cp := st.Clone()
	cp.Set(x, 5)
	if st.Get(x) != 3 {
		t.Errorf("original mutated by clone: x = %d, want 3", st.Get(x))
	}
	if cp.Get(x) != 5 {
		t.Errorf("clone x = %d, want 5", cp.Get(x))
	}
}

func TestStateEqualAndKey(t *testing.T) {
	s, x, y := twoVarSchema(t)
	a := s.NewState()
	b := s.NewState()
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Error("identical states compare unequal")
	}
	b.Set(x, 1)
	if a.Equal(b) || a.Key() == b.Key() {
		t.Error("distinct states compare equal")
	}
	b.Set(x, 0)
	b.SetBool(y, true)
	if a.Equal(b) || a.Key() == b.Key() {
		t.Error("distinct states compare equal (bool)")
	}

	other := NewSchema()
	other.MustDeclare("x", IntRange(0, 9))
	other.MustDeclare("y", Bool())
	if a.Equal(other.NewState()) {
		t.Error("states of different schemas compare equal")
	}
}

func TestStateString(t *testing.T) {
	s := NewSchema()
	c := s.MustDeclare("c", Enum("green", "red"))
	sn := s.MustDeclare("sn", Bool())
	st := s.NewState()
	st.Set(c, 1)
	st.SetBool(sn, true)
	want := "{c=red, sn=true}"
	if got := st.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestStateValuesRoundTrip(t *testing.T) {
	s, x, y := twoVarSchema(t)
	st := s.NewState()
	st.Set(x, 4)
	st.SetBool(y, true)
	vals := st.Values()
	vals[0] = 9 // mutating the copy must not affect st
	if st.Get(x) != 4 {
		t.Error("Values() aliases internal storage")
	}

	dst := s.NewState()
	if err := dst.SetValues([]int32{9, 1}); err != nil {
		t.Fatalf("SetValues: %v", err)
	}
	if dst.Get(x) != 9 || !dst.Bool(y) {
		t.Errorf("SetValues result = %s", dst)
	}
	if err := dst.SetValues([]int32{1}); err == nil {
		t.Error("SetValues with wrong length succeeded")
	}
	if err := dst.SetValues([]int32{99, 0}); err == nil {
		t.Error("SetValues out of domain succeeded")
	}
}

func TestRandomStateInDomain(t *testing.T) {
	s := NewSchema()
	s.MustDeclare("a", IntRange(-5, 5))
	s.MustDeclare("b", Enum("p", "q", "r"))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		st := RandomState(s, rng)
		for id := 0; id < s.Len(); id++ {
			if !s.Spec(VarID(id)).Dom.Contains(st.Get(VarID(id))) {
				t.Fatalf("random state value out of domain: %s", st)
			}
		}
	}
}

func TestRandomStateCoversSpace(t *testing.T) {
	s := NewSchema()
	s.MustDeclare("a", IntRange(0, 3))
	rng := rand.New(rand.NewSource(42))
	seen := make(map[int32]bool)
	for i := 0; i < 200; i++ {
		seen[RandomState(s, rng).Get(0)] = true
	}
	if len(seen) != 4 {
		t.Errorf("random sampling hit %d of 4 values", len(seen))
	}
}
