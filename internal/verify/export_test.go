package verify

import "context"

// SetSuccIndexBudget overrides the in-RAM CSR budget for the duration of
// a test, returning a restore function. A tiny budget refuses every
// in-RAM tier, so SpaceAuto escalates to the spill tier and a forced
// SpaceFull fails; the metamorphic suites pin that escalation.
func SetSuccIndexBudget(b int64) (restore func()) {
	old := succIndexBudget
	succIndexBudget = b
	return func() { succIndexBudget = old }
}

// SetSpoolRunEntries overrides the frontier spools' per-worker run
// threshold for the duration of a test, returning a restore function. A
// tiny threshold makes every spill-tier traversal flush sorted runs and
// drain them through the k-way merge.
func SetSpoolRunEntries(n int) (restore func()) {
	old := spoolRunEntries
	spoolRunEntries = n
	return func() { spoolRunEntries = old }
}

// CSRFits exposes the CSR addressing-limit check for synthetic counts.
func CSRFits(count, edges int64) error { return csrFits(count, edges) }

// SuccIndexStats returns the enabled-edge count and byte size of the
// forward CSR index.
func (sp *Space) SuccIndexStats() (edges, bytes int64) {
	return sp.idx.numEdges(), sp.idx.fwdBytes()
}

// SetSpillNamedFallback forces the spill arena's named-file fallback
// (bypassing O_TMPFILE), so crash-sweep tests can observe leftover files
// on disk. Returns a restore function.
func SetSpillNamedFallback(on bool) (restore func()) {
	old := spillNoOTmpfile
	spillNoOTmpfile = on
	return func() { spillNoOTmpfile = old }
}

// ReverseIndex exposes the (possibly lazily built) reverse CSR for
// comparison against predecessor lists derived from ForwardCSR.
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

// QuotientTables exposes a quotient space's ascending representative
// list and its orbit weights (nil, nil outside quotient mode).
func (sp *Space) QuotientTables() (reps []int64, weights []uint32) {
	if sp.quot == nil {
		return nil, nil
	}
	return sp.quot.reps, sp.quot.weights
}
