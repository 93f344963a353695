package verify

import (
	"context"

	"nonmask/internal/program"
)

// SetSuccIndexBudget overrides the successor-index memory budget for the
// duration of a test, returning a restore function. A tiny budget forces
// every pass through the on-the-fly fallback, which is how the metamorphic
// and benchmark suites pin CSR-vs-fallback agreement.
func SetSuccIndexBudget(b int64) (restore func()) {
	old := succIndexBudget
	succIndexBudget = b
	return func() { succIndexBudget = old }
}

// HasSuccIndex reports whether the space materialized its CSR successor
// index (false means the passes run on the on-the-fly fallback).
func (sp *Space) HasSuccIndex() bool { return sp.idx != nil }

// SuccIndexStats returns the enabled-edge count and byte size of the
// forward CSR index, or zeros when it was not built.
func (sp *Space) SuccIndexStats() (edges, bytes int64) {
	if sp.idx == nil {
		return 0, 0
	}
	return sp.idx.numEdges(), sp.idx.fwdBytes()
}

// SetStateFingerprint substitutes the quotient fingerprint hash for the
// duration of a test, returning a restore function. A degenerate hash
// forces 64-bit collisions between distinct representatives, exercising
// the FingerprintCollision refusal path.
func SetStateFingerprint(fn func(*program.State) uint64) (restore func()) {
	old := stateFingerprint
	stateFingerprint = fn
	return func() { stateFingerprint = old }
}

// SetSpillNamedFallback forces the spill arena's named-file fallback
// (bypassing O_TMPFILE), so crash-sweep tests can observe leftover files
// on disk. Returns a restore function.
func SetSpillNamedFallback(on bool) (restore func()) {
	old := spillNoOTmpfile
	spillNoOTmpfile = on
	return func() { spillNoOTmpfile = old }
}

// SetPredBuilder pins the reverse-CSR builder: 0 density-adaptive
// (default), 1 counting sort, 2 atomic scatter. The benchmark pair and
// the byte-identity test use it. Returns a restore function.
func SetPredBuilder(b int) (restore func()) {
	old := predBuilder
	predBuilder = b
	return func() { predBuilder = old }
}

// ReverseIndex exposes the (possibly lazily built) reverse CSR for
// byte-identity assertions across builders.
func (sp *Space) ReverseIndex() (revOff []uint32, revPred []int32, err error) {
	return sp.predIndex(context.Background())
}

// SweepSpillDir runs the crash-leftover sweep on dir, for tests.
func SweepSpillDir(dir string) { sweepSpillLeftovers(dir) }

// ForwardCSR exposes the forward CSR arrays (offsets and edges) for
// byte-identity assertions against an independent encoder; both are nil
// when the space has no successor index.
func (sp *Space) ForwardCSR() (offsets []uint32, edges []int32) {
	if sp.idx == nil {
		return nil, nil
	}
	return sp.idx.offsets, sp.idx.edges
}
