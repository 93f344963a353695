package program

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSchemaDeclare(t *testing.T) {
	s := NewSchema()
	x, err := s.Declare("x", IntRange(0, 4))
	if err != nil {
		t.Fatalf("Declare(x) error: %v", err)
	}
	y, err := s.Declare("y", Bool())
	if err != nil {
		t.Fatalf("Declare(y) error: %v", err)
	}
	if x == y {
		t.Error("distinct variables got the same ID")
	}
	if s.Len() != 2 {
		t.Errorf("Len() = %d, want 2", s.Len())
	}
	if got := s.Spec(x).Name; got != "x" {
		t.Errorf("Spec(x).Name = %q, want x", got)
	}
	if id, ok := s.Lookup("y"); !ok || id != y {
		t.Errorf("Lookup(y) = %d, %v; want %d, true", id, ok, y)
	}
	if _, ok := s.Lookup("z"); ok {
		t.Error("Lookup(z) found undeclared variable")
	}
}

func TestSchemaDeclareErrors(t *testing.T) {
	s := NewSchema()
	if _, err := s.Declare("", Bool()); err == nil {
		t.Error("Declare with empty name succeeded")
	}
	if _, err := s.Declare("x", Domain{}); err == nil {
		t.Error("Declare with zero domain succeeded")
	}
	if _, err := s.Declare("x", Bool()); err != nil {
		t.Fatalf("Declare(x): %v", err)
	}
	if _, err := s.Declare("x", Bool()); err == nil {
		t.Error("duplicate Declare succeeded")
	}
}

func TestSchemaDeclareArray(t *testing.T) {
	s := NewSchema()
	ids, err := s.DeclareArray("c", 3, Enum("green", "red"))
	if err != nil {
		t.Fatalf("DeclareArray: %v", err)
	}
	if len(ids) != 3 {
		t.Fatalf("got %d ids, want 3", len(ids))
	}
	for i, id := range ids {
		wantName := []string{"c[0]", "c[1]", "c[2]"}[i]
		if got := s.Spec(id).Name; got != wantName {
			t.Errorf("Spec(ids[%d]).Name = %q, want %q", i, got, wantName)
		}
	}
	if _, err := s.DeclareArray("d", 0, Bool()); err == nil {
		t.Error("DeclareArray with length 0 succeeded")
	}
}

func TestSchemaStateCount(t *testing.T) {
	s := NewSchema()
	s.MustDeclare("a", IntRange(0, 4)) // 5
	s.MustDeclare("b", Bool())         // 2
	s.MustDeclare("c", Enum("x", "y", "z"))
	count, ok := s.StateCount()
	if !ok || count != 30 {
		t.Errorf("StateCount() = %d, %v; want 30, true", count, ok)
	}
}

func TestSchemaStateCountOverflow(t *testing.T) {
	// Three variables of ~2e9 values overflow int64 (8e27 states).
	big := NewSchema()
	for i := 0; i < 3; i++ {
		big.MustDeclare(string(rune('a'+i)), IntRange(0, 2_000_000_000))
	}
	if _, ok := big.StateCount(); ok {
		t.Error("StateCount did not report overflow")
	}
}

func TestSchemaIndexRoundTrip(t *testing.T) {
	s := NewSchema()
	s.MustDeclare("a", IntRange(-2, 2)) // 5
	s.MustDeclare("b", Bool())          // 2
	s.MustDeclare("c", Enum("p", "q", "r"))
	count, ok := s.StateCount()
	if !ok {
		t.Fatal("state count overflow")
	}
	seen := make(map[string]bool, count)
	for i := int64(0); i < count; i++ {
		st := s.StateAt(i)
		if got := s.Index(st); got != i {
			t.Fatalf("Index(StateAt(%d)) = %d", i, got)
		}
		k := st.Key()
		if seen[k] {
			t.Fatalf("StateAt(%d) duplicates an earlier state", i)
		}
		seen[k] = true
	}
	if int64(len(seen)) != count {
		t.Errorf("enumerated %d distinct states, want %d", len(seen), count)
	}
}

func TestSchemaStateAtPanicsOutOfRange(t *testing.T) {
	s := NewSchema()
	s.MustDeclare("a", Bool())
	defer func() {
		if recover() == nil {
			t.Error("StateAt(2) did not panic on 2-state schema")
		}
	}()
	s.StateAt(2)
}

func TestNewStateAtDomainMin(t *testing.T) {
	s := NewSchema()
	a := s.MustDeclare("a", IntRange(3, 9))
	b := s.MustDeclare("b", Enum("g", "r"))
	st := s.NewState()
	if st.Get(a) != 3 {
		t.Errorf("new state a = %d, want 3", st.Get(a))
	}
	if st.Get(b) != 0 {
		t.Errorf("new state b = %d, want 0", st.Get(b))
	}
}

// TestNewScratchStatePadsACacheLine checks that a scratch state is the
// all-minimum state of NewState with a cache line of spare capacity
// behind its values.
func TestNewScratchStatePadsACacheLine(t *testing.T) {
	s := NewSchema()
	s.MustDeclare("a", IntRange(3, 9))
	s.MustDeclare("b", Enum("g", "r"))
	st := s.NewScratchState()
	if !st.Equal(s.NewState()) {
		t.Errorf("scratch state %s, want %s", st, s.NewState())
	}
	if spare := 4 * (cap(st.vals) - len(st.vals)); spare < 64 {
		t.Errorf("scratch state has %d spare bytes, want a 64-byte cache line", spare)
	}
}

func TestSortVarIDs(t *testing.T) {
	tests := []struct {
		in, want []VarID
	}{
		{nil, nil},
		{[]VarID{3, 1, 2}, []VarID{1, 2, 3}},
		{[]VarID{2, 2, 2}, []VarID{2}},
		{[]VarID{5, 1, 5, 1}, []VarID{1, 5}},
	}
	for _, tt := range tests {
		got := SortVarIDs(append([]VarID(nil), tt.in...))
		if len(got) != len(tt.want) {
			t.Errorf("SortVarIDs(%v) = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("SortVarIDs(%v) = %v, want %v", tt.in, got, tt.want)
				break
			}
		}
	}
}

// Property: Index is a bijection between random states and 0..count-1.
func TestSchemaIndexBijectionProperty(t *testing.T) {
	s := NewSchema()
	s.MustDeclareArray("x", 4, IntRange(0, 6))
	count, _ := s.StateCount()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := RandomState(s, rng)
		idx := s.Index(st)
		return idx >= 0 && idx < count && s.StateAt(idx).Equal(st)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
