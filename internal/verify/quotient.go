package verify

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"nonmask/internal/program"
)

// stateFingerprint computes the 64-bit fingerprint the MapFingerprint
// lookup table keys representatives by. A package var so the forced-
// collision unit test can substitute a degenerate hash and exercise the
// refusal path (see export_test.go).
var stateFingerprint = (*program.State).Hash64

// FingerprintCollision is the refusal report of the fingerprint-mapped
// quotient tier: two distinct orbit representatives hashed to the same
// 64-bit fingerprint, so the hash cannot stand in for state identity.
// The check refuses with this error — never a silent wrong verdict; the
// caller retries with MapExact (binary search, no hashing).
type FingerprintCollision struct {
	// Fingerprint is the colliding 64-bit value.
	Fingerprint uint64
	// A and B are the two representatives that share it.
	A, B *program.State
}

// Error renders the refusal.
func (c *FingerprintCollision) Error() string {
	return fmt.Sprintf("verify: fingerprint collision %#016x between representatives %s and %s; re-run with the exact quotient map",
		c.Fingerprint, c.A, c.B)
}

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

	// Fingerprint lookup (MapFingerprint): open-addressed, linear probing,
	// power-of-two sized at ~2× load headroom. vals stores qid+1 so 0
	// means empty. nil when the exact map is selected.
	fpKeys []uint64
	fpVals []int32
	fpMask uint64
}

// lookupRep binary-searches the representative list for full index fi,
// returning the quotient id.
func (q *quotient) lookupRep(fi int64) (int64, bool) {
	lo, hi := 0, len(q.reps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.reps[mid] < fi {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(q.reps) && q.reps[lo] == fi {
		return int64(lo), true
	}
	return 0, false
}

// indexOf canonicalizes st in place and returns its quotient id. Every
// caller passes scratch or freshly produced states, so the in-place
// rewrite is safe (representative states are fixed points). Lookup
// failure is impossible after buildQuotient's idempotence sweep; a miss
// here means memory corruption, so it panics rather than limping on.
func (q *quotient) indexOf(codec *program.Codec, st *program.State) int64 {
	q.sym.Canonicalize(st)
	if q.fpKeys != nil {
		fp := stateFingerprint(st)
		slot := fp & q.fpMask
		for {
			v := q.fpVals[slot]
			if v == 0 {
				panic(fmt.Sprintf("verify: fingerprint %#016x of canonical state %s missing from quotient map", fp, st))
			}
			if q.fpKeys[slot] == fp {
				return int64(v - 1)
			}
			slot = (slot + 1) & q.fpMask
		}
	}
	qid, ok := q.lookupRep(codec.Encode(st))
	if !ok {
		panic(fmt.Sprintf("verify: canonical state %s missing from quotient representative list", st))
	}
	return qid
}

// buildQuotient discovers the orbit representatives of p's state space
// under sym and computes orbit weights, in two sharded full-product
// sweeps under one `canonicalize` span:
//
//	sweep 1: count representatives per chunk, then place them at
//	         deterministic offsets of the ascending reps list (a state i
//	         is a representative iff Index(canon(StateAt(i))) = i);
//	sweep 2: canonicalize every state, resolve its representative, and
//	         accumulate orbit weights with per-qid atomic adds. A
//	         canonical image that is not itself a representative fails
//	         here — the idempotence half of the Symmetry contract is
//	         enforced, not assumed.
//
// With MapFingerprint the lookup table is then built from the
// representatives; a 64-bit collision between two of them is refused
// with a FingerprintCollision naming both states.
func buildQuotient(ctx context.Context, p *program.Program, opts Options, codec *program.Codec) (*quotient, error) {
	sym := opts.Symmetry
	if sym == nil || sym.Canonicalize == nil {
		return nil, fmt.Errorf("verify: SpaceQuotient requires a Symmetry (the instance advertises none)")
	}
	fullCount := codec.Count()
	q := &quotient{sym: sym, fullCount: fullCount}
	span := startPass(opts, PassCanonicalize, 2*fullCount)
	workers := opts.workers()
	nChunks := (fullCount + chunkStates - 1) / chunkStates
	chunkBase := make([]int64, nChunks)

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

	// Sweep 1a: per-chunk representative counts.
	err := parallelRange(ctx, workers, fullCount, opts.Progress, func(worker int, lo, hi int64) {
		var n int64
		for i := lo; i < hi; i++ {
			if canonOf(worker, lo, i) == i {
				n++
			}
		}
		chunkBase[lo/chunkStates] = n
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for c := range chunkBase {
		chunkBase[c], total = total, total+chunkBase[c]
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("verify: quotient space of %q still has %d representatives (int32 index limit)", p.Name, total)
	}

	// Sweep 1b: fill the ascending representative list at each chunk's
	// deterministic offset.
	q.reps = make([]int64, total)
	err = parallelRange(ctx, workers, fullCount, opts.Progress, func(worker int, lo, hi int64) {
		cur := chunkBase[lo/chunkStates]
		for i := lo; i < hi; i++ {
			if canonOf(worker, lo, i) == i {
				q.reps[cur] = i
				cur++
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// Sweep 2: orbit weights, plus the idempotence check.
	q.weights = make([]uint32, total)
	bad := newWitness()
	err = parallelRange(ctx, workers, fullCount, opts.Progress, func(worker int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			qid, ok := q.lookupRep(canonOf(worker, lo, i))
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

	if opts.QuotientMap == MapFingerprint {
		if err := q.buildFingerprints(p.Schema); err != nil {
			return nil, err
		}
	}
	span.end(2 * fullCount)
	return q, nil
}

// buildFingerprints populates the open-addressed fingerprint table from
// the representative list, refusing on any 64-bit collision.
func (q *quotient) buildFingerprints(schema *program.Schema) error {
	size := uint64(1)
	if n := len(q.reps); n > 0 {
		size = uint64(1) << bits.Len(uint(2*n))
	}
	q.fpKeys = make([]uint64, size)
	q.fpVals = make([]int32, size)
	q.fpMask = size - 1
	st := schema.NewState()
	for qid, fi := range q.reps {
		schema.StateInto(fi, st)
		fp := stateFingerprint(st)
		slot := fp & q.fpMask
		for {
			v := q.fpVals[slot]
			if v == 0 {
				q.fpKeys[slot] = fp
				q.fpVals[slot] = int32(qid) + 1
				break
			}
			if q.fpKeys[slot] == fp {
				return &FingerprintCollision{
					Fingerprint: fp,
					A:           schema.StateAt(q.reps[v-1]),
					B:           schema.StateAt(fi),
				}
			}
			slot = (slot + 1) & q.fpMask
		}
	}
	return nil
}

// bytes reports the quotient bookkeeping footprint (reps + weights +
// fingerprint table), for the canonicalize span and benchmarks.
func (q *quotient) bytes() int64 {
	return 8*int64(len(q.reps)) + 4*int64(len(q.weights)) +
		8*int64(len(q.fpKeys)) + 4*int64(len(q.fpVals))
}
