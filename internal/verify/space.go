// Package verify is an explicit-state model checker for guarded-command
// programs. It decides, exactly, the two requirements of the paper's
// definition of fault-tolerance (Section 3):
//
//	Closure:     both S and T are closed in p.
//	Convergence: every computation of p that starts at any state where T
//	             holds reaches a state where S holds.
//
// Convergence is decided under two daemons: the arbitrary (unfair) central
// daemon, and the weakly fair daemon the paper's computation model assumes
// (Section 2). The paper's concluding remark that "the fairness requirement
// on program computations is often unnecessary" is checkable by comparing
// the two.
//
// The checker is built for throughput: membership bitmaps are uint64-packed
// bitsets, one-step successors are precomputed into a CSR transition graph
// covering only enabled edges (with a lazily built, cached reverse CSR for
// the metrics suite's backward passes), and the passes — space
// construction, closure scans, the convergence verdicts' region scans and
// border sweeps, fault-span and leads-to reachability — are sharded across a worker pool
// (Options.Workers) with context cancellation polled between chunks. The
// arbitrary-daemon verdict's longest-path DFS and the fair check's Tarjan
// pass walk the CSR sequentially. The unified entry point is Check;
// the per-pass methods remain for callers that need individual verdicts.
//
// Instances that outgrow RAM climb the scaling ladder of DESIGN §13
// (WithSpaceMode): symmetry-quotient spaces over canonical orbit
// representatives, and disk-spilled spaces whose CSR lives in mmap'd
// segment files with frontiers overflowing to sorted temp-file runs.
package verify

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"nonmask/internal/program"
)

// Space is a fully enumerated state space of one program, with packed
// membership bitsets for the invariant S and fault-span T and a
// precomputed CSR successor index (see succIndex in graph.go). It
// underlies all checks and the adversarial daemon's exact distance metric.
// A Space's checks honour the Options it was built with (worker count in
// particular).
//
// In quotient mode the space ranges over the orbit representatives of the
// advertised Symmetry: Count is the representative count, state indices
// are quotient ids, and FullCount keeps the full-product size. Reported
// state counts (|S|, |T|, the distance profile, …) are orbit-weighted, so
// they equal the full space's numbers exactly. In spill mode the CSR
// arrays view mmap'd segment files owned by the space's arena; Close
// releases them.
type Space struct {
	P     *program.Program
	S     *program.Predicate
	T     *program.Predicate
	Count int64
	// FullCount is the full cartesian-product state count; equal to Count
	// except in quotient mode.
	FullCount int64

	opts     Options
	mode     SpaceMode
	inS, inT bitset
	nA       int
	// codec holds the mixed-radix tables every per-state loop decodes
	// and encodes through. It lives here, not on the Schema, so it is
	// dropped with the space: finished job records keep their compiled
	// program. Derived stage spaces share it by pointer.
	codec *program.Codec
	// idx is the CSR transition graph over enabled edges, shared by
	// pointer with derived stage spaces so its cached reverse index is
	// built at most once per Check. Every space has one: a tier whose CSR
	// cannot be built is refused, never left index-free.
	idx *succIndex

	// quot is the symmetry quotient (reps, weights, canonical lookup);
	// nil outside quotient mode.
	quot *quotient
	// arena owns the disk-backed artifacts of spill mode; nil otherwise.
	// Derived stage spaces share it without owning it.
	arena     *spillArena
	ownsArena bool

	// stepsMu guards the arbitrary-daemon verdict and its exact
	// worst-case steps table (nil unless it converges), computed at most
	// once per space: Check's verdict, the metrics passes and the
	// adversarial daemon all read the same computation.
	stepsMu   sync.Mutex
	unfairRes *ConvergenceResult
	stepsTab  []int32
}

// NewSpaceContext enumerates the program's state space and evaluates S
// and T at every state, failing if the space exceeds opts.MaxStates.
// One walk evaluates the predicates and builds the successor table,
// sharded across opts.Workers goroutines and polling ctx between chunks.
// Most callers want Check instead; NewSpaceContext is for follow-up
// passes on a space without a full verdict bundle.
//
// The space-mode ladder (DESIGN §13) resolves here. Explicit modes force
// their tier, and a forced in-RAM tier whose CSR busts succIndexBudget is
// refused. SpaceAuto tries the full in-RAM space first and, as soon as
// the walk's edge set busts the budget, escalates to the symmetry quotient
// (if a Symmetry is advertised), then to the spill tier in opts.SpillDir
// (os.TempDir() when empty). MaxStates always bounds the full-product
// count — enumeration visits every full state once even in quotient mode.
func NewSpaceContext(ctx context.Context, p *program.Program, S, T *program.Predicate, opts Options) (*Space, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	fullCount, ok := p.Schema.StateCount()
	if !ok || fullCount > opts.maxStates() {
		return nil, fmt.Errorf("verify: state space of %q too large (%d states, limit %d)",
			p.Name, fullCount, opts.maxStates())
	}
	codec := program.NewCodec(p.Schema)
	var (
		q   *quotient
		sp  *Space
		err error
	)
	switch opts.SpaceMode {
	case SpaceQuotient:
		if q, err = buildQuotient(ctx, p, opts, codec); err != nil {
			return nil, err
		}
		fallthrough
	case SpaceFull:
		sp, err = newSpace(ctx, p, S, T, opts, opts.SpaceMode, codec, q, nil)
		if errors.Is(err, errOverBudget) {
			err = fmt.Errorf("%w (-space-mode auto or spill puts the CSR on disk)", err)
		}
		return sp, err
	case SpaceSpill:
		arena, err := newSpillArena(opts.SpillDir)
		if err != nil {
			return nil, err
		}
		return newSpace(ctx, p, S, T, opts, SpaceSpill, codec, nil, arena)
	}

	// SpaceAuto: each rung is tried only when the one below refused its
	// CSR as over the in-RAM budget.
	sp, err = newSpace(ctx, p, S, T, opts, SpaceFull, codec, nil, nil)
	if opts.Symmetry != nil && errors.Is(err, errOverBudget) {
		if q, err = buildQuotient(ctx, p, opts, codec); err != nil {
			return nil, err
		}
		sp, err = newSpace(ctx, p, S, T, opts, SpaceQuotient, codec, q, nil)
	}
	if !errors.Is(err, errOverBudget) {
		return sp, err
	}
	arena, aerr := newSpillArena(opts.SpillDir)
	if aerr != nil {
		return nil, fmt.Errorf("%v; spill tier: %w", err, aerr)
	}
	return newSpace(ctx, p, S, T, opts, SpaceSpill, codec, q, arena)
}

// newSpace builds one tier in one walk (build): S and T and the CSR, over
// representatives in quotient mode, arena-backed in spill mode. Every
// tier of one NewSpaceContext call shares the codec built there. The
// space owns arena; it is closed here if the tier cannot be built.
func newSpace(ctx context.Context, p *program.Program, S, T *program.Predicate, opts Options,
	mode SpaceMode, codec *program.Codec, q *quotient, arena *spillArena) (_ *Space, err error) {
	if arena != nil {
		defer func() {
			if err != nil {
				_ = arena.close()
			}
		}()
	}
	fullCount := codec.Count()
	count := fullCount
	if q != nil {
		count = int64(len(q.reps))
	}
	sp := &Space{
		P: p, S: S, T: T, Count: count, FullCount: fullCount,
		opts: opts, mode: mode, quot: q, codec: codec,
		arena: arena, ownsArena: arena != nil,
		nA:  len(p.Actions),
		inS: newBitset(count),
		inT: newBitset(count),
	}
	if err := sp.build(ctx); err != nil {
		return nil, err
	}
	return sp, nil
}

func (sp *Space) workers() int { return sp.opts.workers() }

// Mode reports the resolved space-representation tier this space was
// built on (never SpaceAuto).
func (sp *Space) Mode() SpaceMode { return sp.mode }

// Symmetry returns the symmetry group a quotient space was reduced by,
// nil for full and spill-without-quotient spaces.
func (sp *Space) Symmetry() *Symmetry {
	if sp.quot == nil {
		return nil
	}
	return sp.quot.sym
}

// QuotientStats returns the representative count and the quotient
// bookkeeping footprint in bytes (0, 0 outside quotient mode).
func (sp *Space) QuotientStats() (reps, bytes int64) {
	if sp.quot == nil {
		return 0, 0
	}
	return int64(len(sp.quot.reps)), sp.quot.bytes()
}

// SpillStats returns the bytes materialized into mmap'd CSR segment files
// and the bytes written through frontier spools (0, 0 outside spill mode).
func (sp *Space) SpillStats() (segBytes, spooledBytes int64) {
	if sp.arena == nil {
		return 0, 0
	}
	return sp.arena.segmentBytes(), sp.arena.spooled.Load()
}

// Close releases the space's disk-backed resources (spill segment files
// and any leftover frontier runs). It is a no-op for in-RAM spaces, safe
// to call multiple times, and must be the last use of the space — the
// CSR views die with the mappings. Derived stage spaces never own the
// arena, so closing them is always a no-op.
func (sp *Space) Close() error {
	if sp.arena == nil || !sp.ownsArena {
		return nil
	}
	return sp.arena.close()
}

// region reports whether state i lies in the convergence region T∧¬S.
func (sp *Space) region(i int64) bool { return sp.inT.get(i) && !sp.inS.get(i) }

// stateInto decodes state index i into st: a straight mixed-radix decode
// in full/spill mode, an indirection through the representative list in
// quotient mode. Every pass kernel routes decoding through here or
// through walkInto.
func (sp *Space) stateInto(i int64, st *program.State) {
	if sp.quot != nil {
		i = sp.quot.reps[i]
	}
	sp.codec.Decode(i, st)
}

// walkInto is stateInto for an ascending sweep over [lo, hi) that
// visits every state: outside quotient mode it steps the odometer (see
// sweepInto). It returns the lowest variable position that may differ
// from the state before: 0 whenever st was decoded outright. Loops that
// skip states, or write st, use stateInto.
func (sp *Space) walkInto(lo, i int64, st *program.State) int {
	if sp.quot != nil {
		sp.stateInto(i, st)
		return 0
	}
	return sweepInto(sp.codec, lo, i, st)
}

// sweepInto writes full-product state i of an ascending sweep over
// [lo, hi) into st, which must hold state i-1 when i > lo: only the
// first state of the range is decoded, every later one is one odometer
// step, with no division. It returns the lowest position that changed
// (0 for the decoded first state).
func sweepInto(codec *program.Codec, lo, i int64, st *program.State) int {
	if i == lo {
		codec.Decode(i, st)
		return 0
	}
	return codec.Next(st)
}

// indexOf encodes st back to a state index: a straight mixed-radix encode
// in full/spill mode; in quotient mode st is canonicalized in place and
// resolved through the quotient map. Callers therefore only pass scratch
// states or freshly produced successors — never a state another kernel
// still reads raw.
func (sp *Space) indexOf(st *program.State) int64 {
	if sp.quot == nil {
		return sp.codec.Encode(st)
	}
	return sp.quot.indexOf(sp.codec, st)
}

// weightOf returns the number of full-product states index i stands for:
// 1 outside quotient mode, the orbit size within it.
func (sp *Space) weightOf(i int64) int64 {
	if sp.quot == nil {
		return 1
	}
	return int64(sp.quot.weights[i])
}

// weightedCount counts the full-space states behind b's set bits.
func (sp *Space) weightedCount(b bitset) int64 {
	if sp.quot == nil {
		return b.count()
	}
	var sum int64
	for w, word := range b {
		base := int64(w) * 64
		for word != 0 {
			sum += int64(sp.quot.weights[base+int64(bits.TrailingZeros64(word))])
			word &= word - 1
		}
	}
	return sum
}

// weightedCountAndNot counts the full-space states behind b∧¬not.
func (sp *Space) weightedCountAndNot(b, not bitset) int64 {
	if sp.quot == nil {
		return countAndNot(b, not)
	}
	var sum int64
	for w := range b {
		word := b[w] &^ not[w]
		base := int64(w) * 64
		for word != 0 {
			sum += int64(sp.quot.weights[base+int64(bits.TrailingZeros64(word))])
			word &= word - 1
		}
	}
	return sum
}

// statePair is a worker's scratch pair: st holds the decoded current
// state, tmp the successor produced by ApplyInto.
type statePair struct{ st, tmp *program.State }

func (sp *Space) newStatePairs() []statePair {
	return newSchemaPairs(sp.P.Schema, sp.workers())
}

// evalPred evaluates pred at every state in parallel, returning its
// membership bitset. Constant-true predicates (including nil) short-cut to
// a full bitset without touching the space.
func (sp *Space) evalPred(ctx context.Context, pred *program.Predicate) (bitset, error) {
	bits := newBitset(sp.Count)
	if pred.IsConstTrue() {
		fillBitset(bits, sp.Count)
		return bits, nil
	}
	scr := sp.newStatePairs()
	err := parallelRange(ctx, sp.workers(), sp.Count, sp.opts.Progress, func(worker int, lo, hi int64) {
		st := scr[worker].st
		for i := lo; i < hi; i++ {
			sp.walkInto(lo, i, st)
			if pred.Eval(st) {
				bits.set(i)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return bits, nil
}

// fillBitset sets the first n bits (leaving the tail of the last word
// clear so population counts stay exact).
func fillBitset(b bitset, n int64) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if rem := uint(n & 63); rem != 0 {
		b[len(b)-1] = (uint64(1) << rem) - 1
	}
}

// bitsFor returns the membership bitset of pred, reusing the space's own
// S/T bitsets when pred is one of them.
func (sp *Space) bitsFor(ctx context.Context, pred *program.Predicate) (bitset, error) {
	switch pred {
	case sp.S:
		return sp.inS, nil
	case sp.T:
		return sp.inT, nil
	}
	return sp.evalPred(ctx, pred)
}

// derived builds a stage space over the same program and transition graph
// with substituted membership bitsets — the convergence-stair and leads-to
// passes re-target S and T without re-enumerating anything. The succIndex
// is shared by pointer, so a reverse index built by any stage is reused by
// every later pass of the same Check; quotient and arena are shared
// without ownership.
func (sp *Space) derived(S, T *program.Predicate, inS, inT bitset) *Space {
	return &Space{
		P: sp.P, S: S, T: T, Count: sp.Count, FullCount: sp.FullCount,
		opts: sp.opts, mode: sp.mode, nA: sp.nA, idx: sp.idx,
		quot: sp.quot, arena: sp.arena, codec: sp.codec,
		inS: inS, inT: inT,
	}
}

// InS reports whether state index i satisfies the invariant.
func (sp *Space) InS(i int64) bool { return sp.inS.get(i) }

// InT reports whether state index i satisfies the fault-span.
func (sp *Space) InT(i int64) bool { return sp.inT.get(i) }

// CountS returns the number of states satisfying S (orbit-weighted in
// quotient mode, so it equals the full space's |S| exactly).
func (sp *Space) CountS() int64 { return sp.weightedCount(sp.inS) }

// CountT returns the number of states satisfying T (orbit-weighted).
func (sp *Space) CountT() int64 { return sp.weightedCount(sp.inT) }

// State materializes the state with index i (the orbit representative in
// quotient mode).
func (sp *Space) State(i int64) *program.State {
	if sp.quot != nil {
		i = sp.quot.reps[i]
	}
	return sp.P.Schema.StateAt(i)
}

// ClosureViolation describes one step that escapes a predicate.
type ClosureViolation struct {
	Pred   *program.Predicate
	State  *program.State
	Action *program.Action
	Next   *program.State
}

// Error renders the violation.
func (v *ClosureViolation) Error() string {
	return fmt.Sprintf("closure of %q violated: action %q maps %s to %s",
		v.Pred.Name, v.Action.Name, v.State, v.Next)
}

// CheckClosed verifies that pred is closed in the program restricted to the
// region where `within` holds (paper Section 2: "a state predicate R of p
// is closed iff each action of p preserves R"). A nil `within` means the
// whole space. It returns nil when closed, or a ClosureViolation.
func (sp *Space) CheckClosed(pred, within *program.Predicate) *ClosureViolation {
	v, _ := sp.CheckClosedContext(context.Background(), pred, within)
	return v
}

// CheckClosedContext is CheckClosed with cancellation: the edge scan is
// sharded across the space's workers and the reported violation is the one
// at the lowest state index, independent of worker count.
func (sp *Space) CheckClosedContext(ctx context.Context, pred, within *program.Predicate) (*ClosureViolation, error) {
	if pred.IsConstTrue() {
		return nil, nil // true is closed in every program
	}
	span := startPass(sp.opts, PassClosure, sp.Count)
	predBits, err := sp.bitsFor(ctx, pred)
	if err != nil {
		return nil, err
	}
	var withinBits bitset
	if within != nil && !within.IsConstTrue() {
		if withinBits, err = sp.bitsFor(ctx, within); err != nil {
			return nil, err
		}
	}
	w := newWitness()
	err = parallelRange(ctx, sp.workers(), sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			if !predBits.get(i) || (withinBits != nil && !withinBits.get(i)) {
				continue
			}
			// The witness payload is the violating edge's rank among i's
			// enabled actions; actionAt recovers the action below.
			for k, j := range sp.idx.out(i) {
				if !predBits.get(int64(j)) {
					w.offer(i, int64(k))
					break
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	span.end(sp.Count)
	if !w.found() {
		return nil, nil
	}
	st := sp.State(w.state)
	a := sp.actionAt(w.state, w.extra)
	return &ClosureViolation{Pred: pred, State: st, Action: a, Next: a.Apply(st)}, nil
}

// CheckClosure verifies the paper's closure requirement for the candidate
// triple: both S and T closed in p. It returns the first violation found.
func (sp *Space) CheckClosure() *ClosureViolation {
	v, _ := sp.CheckClosureContext(context.Background())
	return v
}

// CheckClosureContext is CheckClosure with cancellation.
func (sp *Space) CheckClosureContext(ctx context.Context) (*ClosureViolation, error) {
	if v, err := sp.CheckClosedContext(ctx, sp.T, nil); v != nil || err != nil {
		return v, err
	}
	return sp.CheckClosedContext(ctx, sp.S, nil)
}
