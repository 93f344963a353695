package verify

import (
	"math/bits"
	"sync/atomic"
)

// bitset is a uint64-packed membership vector over state indices. It
// replaces the seed checker's []bool bitmaps: an eighth of the memory, and
// population counts run a word (64 states) at a time.
//
// Concurrency contract: plain get/set are safe only when concurrent
// writers touch disjoint 64-state-aligned chunks (the worker pool's chunk
// grain is a multiple of 64, so sharded passes satisfy this by
// construction). testAndSet is fully atomic and is what the parallel BFS
// frontiers use for deduplication.
type bitset []uint64

// newBitset returns an all-zero bitset capable of holding n bits.
func newBitset(n int64) bitset { return make(bitset, (n+63)>>6) }

// get reports bit i.
func (b bitset) get(i int64) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }

// set sets bit i. Not atomic; see the concurrency contract above.
func (b bitset) set(i int64) { b[i>>6] |= 1 << (uint(i) & 63) }

// clear clears bit i. Not atomic; see the concurrency contract above.
func (b bitset) clear(i int64) { b[i>>6] &^= 1 << (uint(i) & 63) }

// testAndSet atomically sets bit i and reports whether this call changed
// it from 0 to 1 (i.e. the caller won the race to claim index i).
func (b bitset) testAndSet(i int64) bool {
	word := &b[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := atomic.LoadUint64(word)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(word, old, old|mask) {
			return true
		}
	}
}

// count returns the number of set bits.
func (b bitset) count() int64 {
	var n int
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return int64(n)
}

// countAnd returns |a ∧ b|.
func countAnd(a, b bitset) int64 {
	var n int
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return int64(n)
}

// countAndNot returns |a ∧ ¬b| — for spaces, |T ∧ ¬S|, the convergence
// region size.
func countAndNot(a, b bitset) int64 {
	var n int
	for i, w := range a {
		n += bits.OnesCount64(w &^ b[i])
	}
	return int64(n)
}

// firstAndNot returns the lowest index set in a but not in b, or -1.
func firstAndNot(a, b bitset) int64 {
	for i, w := range a {
		if d := w &^ b[i]; d != 0 {
			return int64(i)<<6 + int64(bits.TrailingZeros64(d))
		}
	}
	return -1
}

// orInto sets every bit of src in dst (dst |= src).
func (b bitset) orInto(src bitset) {
	for i, w := range src {
		b[i] |= w
	}
}
