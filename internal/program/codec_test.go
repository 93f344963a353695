package program

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fuzzSchema builds a schema of 1–8 variables from shape: shape[0] picks
// the variable count, then each variable reads three bytes — kind
// (bool, int or enum), a signed minimum and a size of 1–6. Missing bytes
// read as zero, so every input yields a valid schema.
func fuzzSchema(shape []byte) *Schema {
	at := func(k int) byte {
		if k < len(shape) {
			return shape[k]
		}
		return 0
	}
	s := NewSchema()
	n := 1 + int(at(0))%8
	for v := 0; v < n; v++ {
		kind, lo, size := at(1+3*v), int32(int8(at(2+3*v))), 1+int32(at(3+3*v))%6
		name := fmt.Sprintf("v%d", v)
		switch kind % 3 {
		case 0:
			s.MustDeclare(name, Bool())
		case 1:
			s.MustDeclare(name, IntRange(lo, lo+size-1))
		default:
			labels := make([]string, size)
			for k := range labels {
				labels[k] = fmt.Sprintf("l%d", k)
			}
			s.MustDeclare(name, Enum(labels...))
		}
	}
	return s
}

// checkCodec compares the codec with the schema's reference encoding at
// index i: decode, odometer step and the encode of a random in-domain
// successor.
func checkCodec(t *testing.T, s *Schema, c *Codec, i int64, rng *rand.Rand) {
	t.Helper()
	st := s.NewState()
	c.Decode(i, st)
	if want := s.StateAt(i); !st.Equal(want) {
		t.Fatalf("Decode(%d) = %s, StateAt = %s", i, st, want)
	}
	if got := c.Encode(st); got != i {
		t.Fatalf("Encode(Decode(%d)) = %d", i, got)
	}
	next := st.Clone()
	v := c.Next(next)
	if count, _ := s.StateCount(); i+1 < count {
		if want := s.StateAt(i + 1); v < 0 || !next.Equal(want) {
			t.Fatalf("Next(Decode(%d)) = %s, %d; want %s and a position", i, next, v, want)
		}
		// The returned position changed, and none before it did.
		if next.vals[v] == st.vals[v] {
			t.Fatalf("Next(Decode(%d)) reported position %d, which did not change", i, v)
		}
		for u := 0; u < v; u++ {
			if next.vals[u] != st.vals[u] {
				t.Fatalf("Next(Decode(%d)) reported position %d, but %d changed", i, v, u)
			}
		}
	} else if want := s.NewState(); v != -1 || !next.Equal(want) {
		t.Fatalf("Next(last state) = %s, %d; want %s, -1", next, v, want)
	}
	succ := randomState(s, rng)
	if got, want := c.Encode(succ), s.Index(succ); got != want {
		t.Fatalf("Encode(%s) = %d, Index = %d", succ, got, want)
	}
}

func FuzzCodec(f *testing.F) {
	// Catalog domain shapes: K-state ring counters (0..K-1), boolean
	// arrays (three- and four-state machines, termination), enum colours
	// with parent pointers (diffusing computation), a negative-minimum
	// range, size-1 domains, and one variable only.
	f.Add([]byte{3, 1, 0, 4, 1, 0, 4, 1, 0, 4, 1, 0, 4}, int64(1))
	f.Add([]byte{5, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1}, int64(2))
	f.Add([]byte{5, 2, 0, 1, 1, 0, 2, 0, 0, 1, 2, 0, 1, 1, 0, 2, 0, 0, 1}, int64(3))
	f.Add([]byte{2, 1, 0xfd, 5, 1, 0xff, 2, 1, 7, 0}, int64(4))
	f.Add([]byte{3, 1, 5, 0, 2, 0, 0, 1, 0, 0, 1, 0, 6}, int64(5))
	f.Add([]byte{0, 1, 0x80, 5}, int64(6))
	f.Add([]byte{7, 1, 0, 5, 1, 0, 5, 1, 0, 5, 1, 0, 5, 1, 0, 5, 1, 0, 5, 1, 0, 5, 1, 0, 5}, int64(7))
	f.Fuzz(func(t *testing.T, shape []byte, seed int64) {
		s := fuzzSchema(shape)
		c := NewCodec(s)
		count := c.Count()
		rng := rand.New(rand.NewSource(seed))
		for _, i := range []int64{0, count - 1, rng.Int63n(count), rng.Int63n(count)} {
			checkCodec(t, s, c, i, rng)
		}
	})
}

func TestCodecMatchesSchemaExhaustively(t *testing.T) {
	s := NewSchema()
	s.MustDeclare("b", Bool())
	s.MustDeclare("x", IntRange(-2, 1))
	s.MustDeclare("one", IntRange(7, 7))
	s.MustDeclare("c", Enum("red", "green", "blue"))
	c := NewCodec(s)
	count, _ := s.StateCount()
	rng := rand.New(rand.NewSource(1))
	walk := s.NewState()
	for i := int64(0); i < count; i++ {
		checkCodec(t, s, c, i, rng)
		if !walk.Equal(s.StateAt(i)) {
			t.Fatalf("odometer walk at %d = %s, want %s", i, walk, s.StateAt(i))
		}
		c.Next(walk)
	}
}

func TestCodecDecodePanicsOutOfRange(t *testing.T) {
	s := NewSchema()
	s.MustDeclare("x", IntRange(0, 2))
	c := NewCodec(s)
	for _, i := range []int64{-1, 3, math.MaxInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Decode(%d) did not panic", i)
				}
			}()
			c.Decode(i, s.NewState())
		}()
	}
}

func TestNewCodecPanicsOnOverflow(t *testing.T) {
	s := NewSchema()
	for v := 0; v < 3; v++ {
		s.MustDeclare(fmt.Sprintf("x%d", v), IntRange(math.MinInt32, math.MaxInt32))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewCodec accepted a state space beyond int64")
		}
	}()
	NewCodec(s)
}

// TestCodecSuccessorMatchesIndex checks the write-local encode at every
// state where the action is enabled: the index equals Index of Apply and
// the state is restored — also with a write listed twice — while a body
// that writes outside Writes leaves the state changed for the caller's
// check to see.
func TestCodecSuccessorMatchesIndex(t *testing.T) {
	s := NewSchema()
	x := s.MustDeclare("x", IntRange(-1, 2))
	y := s.MustDeclare("y", Enum("a", "b", "c"))
	z := s.MustDeclare("z", IntRange(0, 4))
	rotate := func(st *State) {
		st.Set(x, (st.Get(x)+2)%4-1)
		st.Set(z, (st.Get(z)+st.Get(y))%5)
	}
	enabled := func(st *State) bool { return st.Get(y) != 1 }
	honest := NewAction("rotate", Convergence, []VarID{x, y, z}, []VarID{z, x}, enabled, rotate)
	twice := &Action{Name: "twice", Reads: honest.Reads, Writes: []VarID{x, z, x}, Guard: enabled, Body: rotate}
	hidden := NewAction("hidden", Convergence, []VarID{x, y, z}, []VarID{x}, enabled, rotate)
	c := NewCodec(s)
	save := make([]int32, 3)
	caught := 0
	for i := int64(0); i < c.Count(); i++ {
		st := s.StateAt(i)
		if !enabled(st) {
			continue
		}
		for _, a := range []*Action{honest, twice} {
			if got, want := c.Successor(a, st, i, save), s.Index(a.Apply(st)); got != want {
				t.Fatalf("%s: Successor at %s = %d, Index of Apply = %d", a.Name, st, got, want)
			}
			if c.Encode(st) != i {
				t.Fatalf("%s: Successor left %s, not state %d", a.Name, st, i)
			}
		}
		next := s.Index(hidden.Apply(st))
		if got := c.Successor(hidden, st, i, save); c.Encode(st) != i {
			caught++
		} else if got != next {
			t.Fatalf("hidden write at state %d went unseen", i)
		}
	}
	if caught == 0 {
		t.Fatal("the hidden write never changed a value")
	}
}
