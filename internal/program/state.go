package program

import (
	"fmt"
	"strings"
	"unsafe"
)

// State assigns a value to every variable of a Schema (paper Section 2:
// "a state of p is defined by a value for each variable of p").
//
// States are mutable value containers; the execution and verification layers
// copy-on-write via Clone before applying actions, so a *State held by a
// trace or a visited-set key is never mutated afterwards.
type State struct {
	schema *Schema
	vals   []int32
}

// Schema returns the schema this state is an assignment for.
func (s *State) Schema() *Schema { return s.schema }

// Get returns the value of variable id.
func (s *State) Get(id VarID) int32 { return s.vals[id] }

// Bool returns the value of a boolean-encoded variable as a Go bool.
func (s *State) Bool(id VarID) bool { return s.vals[id] != 0 }

// Set assigns v to variable id. It panics if v is outside the variable's
// domain: the guarded-command model has no out-of-domain states, so writing
// one is always a bug in the action body (or an unclamped fault injector).
func (s *State) Set(id VarID, v int32) {
	if d := s.schema.specs[id].Dom; !d.Contains(v) {
		panic(fmt.Sprintf("program: value %d outside domain %s of %s",
			v, d, s.schema.specs[id].Name))
	}
	s.vals[id] = v
}

// SetBool assigns a boolean value to variable id.
func (s *State) SetBool(id VarID, v bool) {
	if v {
		s.Set(id, 1)
	} else {
		s.Set(id, 0)
	}
}

// Clone returns an independent copy of the state.
func (s *State) Clone() *State {
	vals := make([]int32, len(s.vals))
	copy(vals, s.vals)
	return &State{schema: s.schema, vals: vals}
}

// CopyFrom overwrites s with the values of src, a state of the same
// schema.
func (s *State) CopyFrom(src *State) {
	copy(s.vals, src.vals)
}

// Equal reports whether two states over the same schema assign the same
// values. States over different schemas are never equal.
func (s *State) Equal(o *State) bool {
	if s.schema != o.schema || len(s.vals) != len(o.vals) {
		return false
	}
	for i := range s.vals {
		if s.vals[i] != o.vals[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string fingerprint usable as a map key. Two states
// over the same schema have equal keys iff they are Equal.
func (s *State) Key() string {
	if len(s.vals) == 0 {
		return ""
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&s.vals[0])), len(s.vals)*4)
	return string(b)
}

// String renders the state as "name=value" pairs in declaration order,
// using domain-aware value formatting.
func (s *State) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, sp := range s.schema.specs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(sp.Name)
		b.WriteByte('=')
		b.WriteString(sp.Dom.ValueString(s.vals[i]))
	}
	b.WriteByte('}')
	return b.String()
}

// Values returns a copy of the raw value vector in declaration order.
func (s *State) Values() []int32 {
	out := make([]int32, len(s.vals))
	copy(out, s.vals)
	return out
}

// SetValues overwrites the full value vector. The length must match the
// schema and every value must lie in its variable's domain.
func (s *State) SetValues(vals []int32) error {
	if len(vals) != len(s.vals) {
		return fmt.Errorf("program: value vector length %d != schema length %d",
			len(vals), len(s.vals))
	}
	for i, v := range vals {
		if d := s.schema.specs[i].Dom; !d.Contains(v) {
			return fmt.Errorf("program: value %d outside domain %s of %s",
				v, d, s.schema.specs[i].Name)
		}
	}
	copy(s.vals, vals)
	return nil
}
