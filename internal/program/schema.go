package program

import (
	"fmt"
	"math"
	"slices"
)

// VarID identifies a variable within a Schema. IDs are dense, starting at 0,
// in declaration order, so they index directly into State value slices.
type VarID int32

// VarSpec describes one declared variable.
type VarSpec struct {
	Name string
	Dom  Domain
}

// Schema is the variable declaration table of a program: an ordered list of
// named variables with finite domains. A Schema is immutable once actions
// and predicates have been built against it; Declare must not race with
// concurrent readers.
type Schema struct {
	specs []VarSpec
	index map[string]VarID
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{index: make(map[string]VarID)}
}

// Declare adds a variable with the given name and domain and returns its ID.
// Declaring a duplicate name or an invalid domain is an error.
func (s *Schema) Declare(name string, d Domain) (VarID, error) {
	if name == "" {
		return 0, fmt.Errorf("program: empty variable name")
	}
	if d.Size() <= 0 {
		return 0, fmt.Errorf("program: variable %q has empty domain", name)
	}
	if _, dup := s.index[name]; dup {
		return 0, fmt.Errorf("program: variable %q already declared", name)
	}
	id := VarID(len(s.specs))
	s.specs = append(s.specs, VarSpec{Name: name, Dom: d})
	s.index[name] = id
	return id, nil
}

// MustDeclare is Declare but panics on error. It is intended for protocol
// constructors whose declarations are statically correct.
func (s *Schema) MustDeclare(name string, d Domain) VarID {
	id, err := s.Declare(name, d)
	if err != nil {
		panic(err)
	}
	return id
}

// DeclareArray declares n variables named name[0] .. name[n-1], all with
// domain d, and returns their IDs in index order.
func (s *Schema) DeclareArray(name string, n int, d Domain) ([]VarID, error) {
	if n <= 0 {
		return nil, fmt.Errorf("program: array %q has non-positive length %d", name, n)
	}
	ids := make([]VarID, n)
	for i := 0; i < n; i++ {
		id, err := s.Declare(fmt.Sprintf("%s[%d]", name, i), d)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}

// MustDeclareArray is DeclareArray but panics on error.
func (s *Schema) MustDeclareArray(name string, n int, d Domain) []VarID {
	ids, err := s.DeclareArray(name, n, d)
	if err != nil {
		panic(err)
	}
	return ids
}

// Len returns the number of declared variables.
func (s *Schema) Len() int { return len(s.specs) }

// Spec returns the declaration of variable id. It panics on an out-of-range
// ID, which always indicates a programming error (IDs come from Declare).
func (s *Schema) Spec(id VarID) VarSpec { return s.specs[id] }

// Lookup finds a variable by name.
func (s *Schema) Lookup(name string) (VarID, bool) {
	id, ok := s.index[name]
	return id, ok
}

// MustLookup finds a variable by name and panics if it is not declared.
func (s *Schema) MustLookup(name string) VarID {
	id, ok := s.index[name]
	if !ok {
		panic("program: undeclared variable " + name)
	}
	return id
}

// Names returns all declared variable names in declaration order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.specs))
	for i, sp := range s.specs {
		out[i] = sp.Name
	}
	return out
}

// StateCount returns the size of the full state space (the product of all
// domain sizes) and whether that product fits in an int64 without overflow.
// Explicit-state enumeration in internal/verify requires ok == true.
func (s *Schema) StateCount() (count int64, ok bool) {
	count = 1
	for _, sp := range s.specs {
		sz := sp.Dom.Size()
		if sz == 0 {
			return 0, false
		}
		if count > math.MaxInt64/sz {
			return 0, false
		}
		count *= sz
	}
	return count, true
}

// NewState returns a state with every variable at the minimum of its domain.
func (s *Schema) NewState() *State {
	return s.newState(0)
}

// NewScratchState is NewState for one worker of a sharded loop that
// writes the state at every step: its values are followed by a cache
// line of unused capacity, so two workers' scratch states never share a
// cache line.
func (s *Schema) NewScratchState() *State {
	return s.newState(64 / 4)
}

// newState returns the all-minimum state with pad values of spare
// capacity behind its values.
func (s *Schema) newState(pad int) *State {
	st := &State{schema: s, vals: make([]int32, len(s.specs), len(s.specs)+pad)}
	for i, sp := range s.specs {
		st.vals[i] = sp.Dom.Min
	}
	return st
}

// StateAt decodes a mixed-radix state index (as produced by Index) back
// into a State. It panics if idx is out of range; callers obtain indices
// from StateCount-bounded loops.
func (s *Schema) StateAt(idx int64) *State {
	st := &State{schema: s, vals: make([]int32, len(s.specs))}
	for i := len(s.specs) - 1; i >= 0; i-- {
		sz := s.specs[i].Dom.Size()
		st.vals[i] = s.specs[i].Dom.Min + int32(idx%sz)
		idx /= sz
	}
	if idx != 0 {
		panic("program: state index out of range")
	}
	return st
}

// StateInto decodes a mixed-radix state index into an existing state,
// avoiding StateAt's per-call allocation. st must have been created for
// this schema. It panics if idx is out of range. Loops over many states
// use a Codec, which decodes the same indices from precomputed tables.
func (s *Schema) StateInto(idx int64, st *State) {
	for i := len(s.specs) - 1; i >= 0; i-- {
		sz := s.specs[i].Dom.Size()
		st.vals[i] = s.specs[i].Dom.Min + int32(idx%sz)
		idx /= sz
	}
	if idx != 0 {
		panic("program: state index out of range")
	}
}

// Index encodes a state as a mixed-radix integer in 0..StateCount-1.
// It is the inverse of StateAt, and the reference form of Codec.Encode.
func (s *Schema) Index(st *State) int64 {
	var idx int64
	for i, sp := range s.specs {
		idx = idx*sp.Dom.Size() + int64(st.vals[i]-sp.Dom.Min)
	}
	return idx
}

// SortVarIDs sorts a slice of variable IDs in place and removes duplicates,
// returning the (possibly shorter) slice. It is the canonical form used for
// action footprints and predicate supports.
func SortVarIDs(ids []VarID) []VarID {
	slices.Sort(ids)
	out := ids[:0]
	var prev VarID = -1
	for _, id := range ids {
		if id != prev {
			out = append(out, id)
			prev = id
		}
	}
	return out
}
