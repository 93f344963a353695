package verify

import (
	"context"

	"nonmask/internal/program"
)

// SetSuccIndexBudget overrides the in-RAM CSR budget for the duration of
// a test, returning a restore function. A tiny budget refuses every
// in-RAM tier, so SpaceAuto escalates to the spill tier and a forced
// SpaceFull fails; the metamorphic suites pin that escalation.
func SetSuccIndexBudget(b int64) (restore func()) {
	old := succIndexBudget
	succIndexBudget = b
	return func() { succIndexBudget = old }
}

// CSRFits exposes the CSR addressing-limit check for synthetic counts.
func CSRFits(count, edges int64) error { return csrFits(count, edges) }

// SuccIndexStats returns the enabled-edge count and byte size of the
// forward CSR index.
func (sp *Space) SuccIndexStats() (edges, bytes int64) {
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
// byte-identity assertions against an independent encoder.
func (sp *Space) ForwardCSR() (offsets []uint32, edges []int32) {
	return sp.idx.offsets, sp.idx.edges
}

// RandomProgram exposes the metatheorem suite's random transition-system
// generator to the external test package.
var RandomProgram = randomProgram
