package verify

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"nonmask/internal/program"
)

// quotient is the symmetry-reduced view of a full state space: the
// ascending list of orbit representatives (full-product indices i with
// canon(i) = i), each orbit's weight, and the canonical-state → quotient-id
// lookup every pass routes successor encoding through. Quotient ids are
// positions in reps, so the quotient space is dense and all bitset/CSR
// machinery applies unchanged.
type quotient struct {
	sym       *Symmetry
	fullCount int64
	reps      []int64  // ascending full indices of the representatives
	weights   []uint32 // orbit sizes, indexed by quotient id

	// Representative lookup: open-addressed, linear probing, power-of-two
	// sized at ~2× load headroom, keyed by the full-product index of the
	// canonical state. The index is exact, so keys never collide; vals
	// stores qid+1 so 0 means empty.
	keys  []int64
	vals  []int32
	shift uint // 64 - log2(len(keys)): Fibonacci hashing keeps the high bits
}

// fibMul is 2^64 divided by the golden ratio; multiplying by it and
// keeping the high bits spreads consecutive indices across the table.
const fibMul = 0x9e3779b97f4a7c15

// buildTable fills the lookup table from the representative list.
func (q *quotient) buildTable() {
	size := uint64(1)
	if n := len(q.reps); n > 0 {
		size = uint64(1) << bits.Len(uint(2*n))
	}
	q.keys = make([]int64, size)
	q.vals = make([]int32, size)
	q.shift = uint(64 - bits.TrailingZeros64(size))
	mask := size - 1
	for qid, fi := range q.reps {
		slot := uint64(fi) * fibMul >> q.shift
		for q.vals[slot] != 0 {
			slot = (slot + 1) & mask
		}
		q.keys[slot], q.vals[slot] = fi, int32(qid)+1
	}
}

// lookup returns the quotient id of the representative whose full index
// is fi, and false when fi is not a representative.
func (q *quotient) lookup(fi int64) (int64, bool) {
	mask := uint64(len(q.keys) - 1)
	for slot := uint64(fi) * fibMul >> q.shift; ; slot = (slot + 1) & mask {
		v := q.vals[slot]
		if v == 0 {
			return 0, false
		}
		if q.keys[slot] == fi {
			return int64(v - 1), true
		}
	}
}

// indexOf canonicalizes st in place and returns its quotient id. Every
// caller passes scratch or freshly produced states, so the in-place
// rewrite is safe (representative states are fixed points). Lookup
// failure is impossible after buildQuotient's idempotence sweep; a miss
// here means memory corruption, so it panics rather than limping on.
func (q *quotient) indexOf(codec *program.Codec, st *program.State) int64 {
	q.sym.Canonicalize(st)
	qid, ok := q.lookup(codec.Encode(st))
	if !ok {
		panic(fmt.Sprintf("verify: canonical state %s missing from quotient map", st))
	}
	return qid
}

// buildQuotient discovers the orbit representatives of p's state space
// under sym and computes orbit weights, in two sharded full-product
// sweeps under one `canonicalize` span:
//
//	sweep 1: collect each chunk's representatives (a state i is one iff
//	         Index(canon(StateAt(i))) = i) into a chunk-local slice, then
//	         concatenate the slices in chunk order, so reps is ascending
//	         and identical at every worker count;
//	sweep 2: canonicalize every state, look its representative up in the
//	         table built from reps, and accumulate orbit weights with
//	         per-qid atomic adds. A canonical image that is not itself a
//	         representative fails here — the idempotence half of the
//	         Symmetry contract is enforced, not assumed.
func buildQuotient(ctx context.Context, p *program.Program, opts Options, codec *program.Codec) (*quotient, error) {
	sym := opts.Symmetry
	if sym == nil || sym.Canonicalize == nil {
		return nil, fmt.Errorf("verify: SpaceQuotient requires a Symmetry (the instance advertises none)")
	}
	fullCount := codec.Count()
	q := &quotient{sym: sym, fullCount: fullCount}
	span := startPass(opts, PassCanonicalize, 2*fullCount)
	workers := opts.workers()

	// Each sweep walks the full product with an odometer and
	// canonicalizes a copy of the walked state; canonOf returns the
	// full index of state i's canonical image.
	scr := newSchemaPairs(p.Schema, workers)
	canonOf := func(worker int, lo, i int64) int64 {
		walk, canon := scr[worker].st, scr[worker].tmp
		sweepInto(codec, lo, i, walk)
		canon.CopyFrom(walk)
		sym.Canonicalize(canon)
		return codec.Encode(canon)
	}

	// Sweep 1: per-chunk representative lists, gathered in a per-worker
	// buffer and cloned to their exact length.
	chunkReps := make([][]int64, (fullCount+chunkStates-1)/chunkStates)
	bufs := make([][]int64, workers)
	err := parallelRange(ctx, workers, fullCount, opts.Progress, func(worker int, lo, hi int64) {
		buf := bufs[worker][:0]
		for i := lo; i < hi; i++ {
			if canonOf(worker, lo, i) == i {
				buf = append(buf, i)
			}
		}
		bufs[worker] = buf
		chunkReps[lo/chunkStates] = slices.Clone(buf)
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, r := range chunkReps {
		total += int64(len(r))
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("verify: quotient space of %q still has %d representatives (int32 index limit)", p.Name, total)
	}
	q.reps = make([]int64, 0, total)
	for c, r := range chunkReps {
		q.reps = append(q.reps, r...)
		chunkReps[c] = nil
	}
	q.buildTable()

	// Sweep 2: orbit weights, plus the idempotence check.
	q.weights = make([]uint32, total)
	bad := newWitness()
	err = parallelRange(ctx, workers, fullCount, opts.Progress, func(worker int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			qid, ok := q.lookup(canonOf(worker, lo, i))
			if !ok {
				bad.offer(i, 0)
				continue
			}
			atomic.AddUint32(&q.weights[qid], 1)
		}
	})
	if err != nil {
		return nil, err
	}
	if bad.found() {
		st := p.Schema.StateAt(bad.state)
		sym.Canonicalize(st)
		return nil, fmt.Errorf("verify: symmetry %q is not idempotent: canonical image %s of %s is not itself canonical",
			sym.Name, st, p.Schema.StateAt(bad.state))
	}
	span.end(2 * fullCount)
	return q, nil
}

// bytes reports the quotient bookkeeping footprint (reps + weights +
// lookup table), for the canonicalize span and benchmarks.
func (q *quotient) bytes() int64 {
	return 8*int64(len(q.reps)) + 4*int64(len(q.weights)) +
		8*int64(len(q.keys)) + 4*int64(len(q.vals))
}
