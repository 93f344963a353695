package verify

import (
	"context"
	"unsafe"
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

// SetSpoolRunEntries overrides the frontier spools' per-worker run
// threshold for the duration of a test, returning a restore function. A
// tiny threshold makes every spill-tier traversal flush sorted runs and
// drain them through the k-way merge.
func SetSpoolRunEntries(n int) (restore func()) {
	old := spoolRunEntries
	spoolRunEntries = n
	return func() { spoolRunEntries = old }
}

// CSRFits exposes the CSR addressing-limit checks for synthetic counts:
// the forward index's, for a program of nA actions, and the reverse
// index's, for E edges.
func CSRFits(count int64, nA int, edges int64) (fwd, rev error) {
	return fwdFits(count, nA), csrFits(count, edges)
}

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

// ForwardCSR flattens the chunk-owned forward CSR into one global
// offsets/edges pair, for byte-identity assertions against an
// independent encoder.
func (sp *Space) ForwardCSR() (offsets []uint32, edges []int32) {
	offsets = make([]uint32, 0, sp.Count+1)
	for i := int64(0); i < sp.Count; i++ {
		offsets = append(offsets, uint32(len(edges)))
		edges = append(edges, sp.idx.out(i)...)
	}
	return append(offsets, uint32(len(edges))), edges
}

// Membership exposes the packed S and T bitsets.
func (sp *Space) Membership() (inS, inT []uint64) { return sp.inS, sp.inT }

// SpillChunksInOrder reports whether a spill-tier space's chunks lie in
// its edge segment in index order. The walk writes each chunk where the
// running edge total puts it when the chunk finishes, so at several
// workers they usually do not.
func (sp *Space) SpillChunksInOrder() bool {
	var last uintptr
	for _, e := range sp.idx.edges {
		if len(e) == 0 {
			continue
		}
		if p := uintptr(unsafe.Pointer(&e[0])); p > last {
			last = p
		} else {
			return false
		}
	}
	return true
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
