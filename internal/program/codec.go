package program

// Codec is the mixed-radix state codec of one Schema with its tables
// precomputed: per variable the radix (domain size), the stride (the
// product of the radices after it), and the domain bounds. It encodes
// exactly the indices Schema.Index and Schema.StateAt do, but it is the
// form for per-state loops:
//
//   - an ascending sweep decodes its first state and then steps the
//     odometer (Next), which needs no division and reports which
//     variables the step changed;
//   - a successor whose writes are declared is encoded from them alone
//     (Successor);
//   - any other decode (Decode) or encode (Encode) reads the cached
//     radices and strides instead of recomputing each domain's size.
//
// A Codec is read-only after construction and safe for concurrent use.
// It is not cached on the Schema: callers build one per state space and
// drop it with the space.
type Codec struct {
	radix    []int64
	stride   []int64
	min, max []int32
	count    int64
}

// NewCodec builds the codec tables of s. Callers bound the state space
// with Schema.StateCount first; NewCodec panics if it does not fit in an
// int64 index.
func NewCodec(s *Schema) *Codec {
	count, ok := s.StateCount()
	if !ok {
		panic("program: state space overflows an int64 index")
	}
	n := len(s.specs)
	c := &Codec{
		radix:  make([]int64, n),
		stride: make([]int64, n),
		min:    make([]int32, n),
		max:    make([]int32, n),
		count:  count,
	}
	stride := int64(1)
	for v := n - 1; v >= 0; v-- {
		d := s.specs[v].Dom
		c.radix[v], c.stride[v] = d.Size(), stride
		c.min[v], c.max[v] = d.Min, d.Max
		stride *= c.radix[v]
	}
	return c
}

// Count returns the number of states the codec indexes, as
// Schema.StateCount does.
func (c *Codec) Count() int64 { return c.count }

// Decode writes the state with index i into st, like Schema.StateInto.
// It panics if i is out of range.
func (c *Codec) Decode(i int64, st *State) {
	if i < 0 || i >= c.count {
		panic("program: state index out of range")
	}
	radix := c.radix
	vals, mins := st.vals[:len(radix)], c.min[:len(radix)]
	for v := len(radix) - 1; v >= 0; v-- {
		r := radix[v]
		vals[v] = mins[v] + int32(i%r)
		i /= r
	}
}

// Encode returns the index of st, like Schema.Index.
func (c *Codec) Encode(st *State) int64 {
	stride := c.stride
	vals, mins := st.vals[:len(stride)], c.min[:len(stride)]
	var i int64
	for v, x := range vals {
		i += (int64(x) - int64(mins[v])) * stride[v]
	}
	return i
}

// Next advances st to the state with the next index: the last variable
// is incremented, carrying into the one before it when it wraps. It
// returns the lowest variable position it changed, so only positions
// [v, Len) can differ from the state before the step. It returns -1,
// leaving every variable at its minimum, when st was the last state.
func (c *Codec) Next(st *State) int {
	maxs := c.max
	vals, mins := st.vals[:len(maxs)], c.min[:len(maxs)]
	for v := len(maxs) - 1; v >= 0; v-- {
		if vals[v] < maxs[v] {
			vals[v]++
			return v
		}
		vals[v] = mins[v]
	}
	return -1
}

// Successor runs a's body on st in place and returns the index of the
// state it produced, given i, the index of st: i plus, for each declared
// write, the change of that variable times its stride. It then restores
// the declared writes from save, which must hold len(a.Writes) values.
// The encode therefore trusts Writes: st is state i again afterwards
// unless the body changed a variable outside them, which callers check
// with one Encode per state rather than one per successor.
//
// The delta (the result minus i) depends on nothing but the variables of
// a's footprint when its Reads are honest, so a sweep may keep it and
// rerun Successor only at states whose step changed one of them, as the
// checker's successor index does; it trusts Reads for bodies as well as
// guards, and spot-checks the kept deltas once per sweep chunk.
func (c *Codec) Successor(a *Action, st *State, i int64, save []int32) int64 {
	vals := st.vals
	for k, w := range a.Writes {
		save[k] = vals[w]
	}
	a.Body(st)
	// Restoring inside the delta loop keeps a duplicated write from
	// counting its change twice.
	for k, w := range a.Writes {
		i += (int64(vals[w]) - int64(save[k])) * c.stride[w]
		vals[w] = save[k]
	}
	return i
}
