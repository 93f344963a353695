package verify

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"nonmask/internal/program"
)

// succIndexBudget caps the memory spent on each in-RAM transition index
// (the forward CSR, and separately the reverse CSR mirroring it). The
// budget is charged against the *actual* enabled-edge count E discovered
// by the counting sweep:
//
//	forward bytes = 4·(Count+1) + 4·E   (uint32 offsets + int32 targets)
//
// An in-RAM tier above it is refused with errOverBudget, which is the
// SpaceAuto ladder's cue to escalate; the spill tier keeps its arrays in
// mmap'd segment files and is bounded by the disk instead. A var rather
// than a const so tests can force the escalation (see export_test.go).
var succIndexBudget = int64(1) << 31 // 2 GiB per index

// errOverBudget marks an in-RAM tier refused because its measured CSR
// busts succIndexBudget.
var errOverBudget = errors.New("verify: CSR over the in-RAM budget")

// csrFits refuses a CSR its fixed-width arrays cannot address: state ids
// are int32, and forward and reverse offsets are uint32 positions in an
// edge array of E entries. Past either limit the fill would truncate
// silently into a corrupt graph.
func csrFits(count, edges int64) error {
	if count > math.MaxInt32 {
		return fmt.Errorf("verify: %d states exceed the CSR's int32 state ids", count)
	}
	if edges > math.MaxUint32 {
		return fmt.Errorf("verify: %d edges exceed the CSR's uint32 offsets", edges)
	}
	return nil
}

// succIndex is the CSR transition graph of a Space, covering only enabled
// transitions: state i's successors are edges[offsets[i]:offsets[i+1]], in
// ascending action order. The entry payload is the 4-byte successor index
// alone — the acting action is implicit as the edge's rank among i's
// enabled guards and is recovered by actionAt only on witness paths, so
// edge storage stays at 4 bytes even for near-dense programs.
//
// The reverse CSR (predecessors, multi-edges kept) is built lazily by
// predIndex when a metrics pass first walks backwards, and cached here;
// derived stage spaces share the struct by pointer, so one Check builds
// it at most once.
//
// On the spill tier both CSRs view mmap'd segment files (sealed read-only
// after their fill sweeps) instead of heap slices; the owning Space's
// arena unmaps them at Close.
type succIndex struct {
	offsets []uint32 // len Count+1
	edges   []int32  // successor state per enabled (state, action)

	revMu   sync.Mutex
	revOff  []uint32 // len Count+1; nil until built
	revPred []int32  // predecessor state per enabled edge, source-ascending
}

// out returns the successor indices of state i, one per enabled action in
// action order.
func (g *succIndex) out(i int64) []int32 {
	return g.edges[g.offsets[i]:g.offsets[i+1]]
}

// numEdges returns E, the number of enabled transitions in the space.
func (g *succIndex) numEdges() int64 { return int64(len(g.edges)) }

// fwdBytes is the forward index's memory footprint.
func (g *succIndex) fwdBytes() int64 {
	return 4*int64(len(g.offsets)) + 4*int64(len(g.edges))
}

// buildSuccIndex constructs the forward CSR in two sharded sweeps with no
// per-edge atomics: sweep 1 counts enabled guards per chunk, a sequential
// prefix sum over the per-chunk totals assigns each chunk a disjoint slice
// of the edge array, and sweep 2 fills offsets and edges with a per-chunk
// local cursor. Between the sweeps the measured edge count decides: an
// in-RAM tier over succIndexBudget is refused with errOverBudget, and any
// tier past the limits of csrFits with a plain error. On the spill tier
// the arrays are allocated as mmap'd segment files, filled, and sealed
// read-only.
//
// Both sweeps work from the actions' footprints through a per-worker
// succMemo: after an odometer step only the actions whose footprint the
// step changed have their guard re-evaluated and, in the fill sweep
// outside quotient mode, their successor re-encoded from their declared
// writes (Codec.Successor) as an index delta. Every other enabled
// action's edge is the state's index plus its memoized delta. Neither
// footprint is taken on faith: at each chunk's last state the counting
// sweep compares every memoized guard, and the fill sweep every memoized
// successor, with a fresh evaluation, and the fill sweep re-encodes the
// walked state at every state where a body ran to prove the bodies
// touched nothing but their writes. A failed check refuses the space with
// an error naming the action.
func (sp *Space) buildSuccIndex(ctx context.Context) error {
	f, err := newFootprints(sp.P)
	if err != nil {
		return err
	}
	// The progress hint is 2·Count: the counting sweep and the fill sweep
	// each visit every state once.
	span := startPass(sp.opts, PassSuccTable, 2*sp.Count)
	workers := sp.workers()
	nChunks := (sp.Count + chunkStates - 1) / chunkStates
	chunkBase := make([]int64, nChunks)
	pairs := sp.newStatePairs()
	memos := make([]*succMemo, workers)
	for w := range memos {
		memos[w] = newSuccMemo(f)
	}
	staleGuard := newWitness()
	err = parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(worker int, lo, hi int64) {
		st, m := pairs[worker].st, memos[worker]
		m.clear()
		var enabled, n int64
		for i := lo; i < hi; i++ {
			enabled += m.advance(f, st, sp.walkInto(lo, i, st))
			n += enabled
		}
		if a := m.staleGuard(f, st); a >= 0 {
			staleGuard.offer(hi-1, int64(a))
		}
		chunkBase[lo/chunkStates] = n
	})
	if err != nil {
		return err
	}
	if staleGuard.found() {
		return sp.undeclaredRead(staleGuard, "guard")
	}
	var total int64
	for c := range chunkBase {
		chunkBase[c], total = total, total+chunkBase[c]
	}
	if bytes := 4*(sp.Count+1) + 4*total; sp.arena == nil && bytes > succIndexBudget {
		// Surface the measured edge count on the span (bytes 0 = nothing
		// materialized) before refusing the tier.
		span.endSized(sp.Count, total, 0)
		return fmt.Errorf("%w: %d edges over %d states need %d bytes, budget %d",
			errOverBudget, total, sp.Count, bytes, succIndexBudget)
	}
	if err := csrFits(sp.Count, total); err != nil {
		return err
	}
	g := &succIndex{}
	if sp.arena != nil {
		offSeg, err := sp.arena.allocSegment(4 * (sp.Count + 1))
		if err != nil {
			return err
		}
		edgeSeg, err := sp.arena.allocSegment(4 * total)
		if err != nil {
			return err
		}
		g.offsets, g.edges = u32view(offSeg.data), i32view(edgeSeg.data)
		defer func() { offSeg.seal(); edgeSeg.seal() }()
	} else {
		g.offsets, g.edges = make([]uint32, sp.Count+1), make([]int32, total)
	}
	unrestored, staleSucc := newWitness(), newWitness()
	err = parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(worker int, lo, hi int64) {
		st, tmp, m := pairs[worker].st, pairs[worker].tmp, memos[worker]
		cur := chunkBase[lo/chunkStates]
		if sp.quot != nil {
			// Representatives are decoded, not walked, and every
			// successor is canonicalized from a full copy.
			for i := lo; i < hi; i++ {
				sp.stateInto(i, st)
				m.advance(f, st, 0)
				g.offsets[i] = uint32(cur)
				for w, word := range m.on {
					for ; word != 0; word &= word - 1 {
						f.acts[w<<6|bits.TrailingZeros64(word)].ApplyInto(st, tmp)
						g.edges[cur] = int32(sp.indexOf(tmp))
						cur++
					}
				}
			}
			return
		}
		for i := lo; i < hi; i++ {
			ran := m.fill(f, sp.codec, st, i, sweepInto(sp.codec, lo, i, st))
			g.offsets[i] = uint32(cur)
			cur += m.emit(i, g.edges[cur:])
			if ran && sp.codec.Encode(st) != i {
				// The walk is off its index; the rest of the chunk is lost.
				unrestored.offer(i, 0)
				return
			}
		}
		if a := m.staleSucc(f, sp.codec, st, hi-1); a >= 0 {
			staleSucc.offer(hi-1, int64(a))
		}
		if sp.codec.Encode(st) != hi-1 {
			unrestored.offer(hi-1, 0)
		}
	})
	if err != nil {
		return err
	}
	if unrestored.found() {
		return sp.undeclaredWrite(f, unrestored.state)
	}
	if staleSucc.found() {
		return sp.undeclaredRead(staleSucc, "successor")
	}
	g.offsets[sp.Count] = uint32(total)
	sp.idx = g
	if sp.arena != nil {
		span.addSpilled(g.fwdBytes())
	}
	span.endSized(sp.Count, total, g.fwdBytes())
	return nil
}

// footprints is buildSuccIndex's plan of a program's declared reads and
// writes. byTop lists the action ids by their highest footprint variable
// (Reads ∪ Writes), descending, and upTo[v] counts those whose highest
// one is ≥ v: an odometer step that changed positions [v, n) can change
// the guard or the successor delta of exactly the first upTo[v] actions.
// Writes count because a delta depends on the old value of every write,
// read or not. An action with no declared reads counts as reading the
// last variable, so it is evaluated at every state. maxWrites sizes each
// worker's Codec.Successor save buffer.
type footprints struct {
	acts      []*program.Action
	byTop     []int32
	upTo      []int
	maxWrites int
}

// newFootprints plans p's footprints, refusing one that names a variable
// outside the schema.
func newFootprints(p *program.Program) (*footprints, error) {
	n := p.Schema.Len()
	f := &footprints{
		acts:  p.Actions,
		byTop: make([]int32, len(p.Actions)),
		upTo:  make([]int, max(n, 1)),
	}
	top := make([]int, len(p.Actions))
	for a, act := range p.Actions {
		top[a] = max(n-1, 0)
		fp := act.Footprint()
		if len(act.Reads) > 0 {
			top[a] = int(slices.Max(fp))
		}
		for _, id := range fp {
			if id < 0 || int(id) >= n {
				return nil, fmt.Errorf("verify: action %q of %q names undeclared variable %d", act.Name, p.Name, id)
			}
		}
		f.byTop[a] = int32(a)
		f.maxWrites = max(f.maxWrites, len(act.Writes))
		for v := 0; v <= top[a]; v++ {
			f.upTo[v]++
		}
	}
	slices.SortStableFunc(f.byTop, func(x, y int32) int { return top[y] - top[x] })
	return f, nil
}

// succMemo is one worker's memo of every action along an ascending sweep:
// bit a of on is action a's guard at the current state and, while it is
// set, delta[a] is the action's successor index minus the state's (kept
// by the fill sweep only). It trusts the declared footprints (see
// footprints); staleGuard and staleSucc are the spot checks of that
// trust. Each worker's arrays are allocated with a cache line of unused
// capacity behind them (workerScratch), so two workers' memos never
// share a cache line.
type succMemo struct {
	on    []uint64
	delta []int64
	save  []int32 // Codec.Successor's buffer for the declared writes
}

func newSuccMemo(f *footprints) *succMemo {
	return &succMemo{
		on:    workerScratch[uint64]((len(f.acts) + 63) / 64),
		delta: workerScratch[int64](len(f.acts)),
		save:  workerScratch[int32](f.maxWrites),
	}
}

// clear drops every memoized guard, for a chunk whose first state
// re-evaluates them all.
func (m *succMemo) clear() { clear(m.on) }

// set records action a's guard g and returns the change it makes to the
// number of enabled actions.
func (m *succMemo) set(a int32, g bool) int64 {
	w, bit := a>>6, uint64(1)<<(a&63)
	was := m.on[w]&bit != 0
	switch {
	case g == was:
		return 0
	case g:
		m.on[w] |= bit
		return 1
	default:
		m.on[w] &^= bit
		return -1
	}
}

// advance brings the memo's guards to st after a step that changed
// positions [v, n) — v = 0 for a decoded state re-evaluates every guard —
// and returns the change in the number of enabled actions.
func (m *succMemo) advance(f *footprints, st *program.State, v int) (dn int64) {
	for _, a := range f.byTop[:f.upTo[v]] {
		dn += m.set(a, f.acts[a].Guard(st))
	}
	return dn
}

// fill is advance for the fill sweep at full index i: each action whose
// footprint the step changed also has its successor delta re-encoded
// when its guard holds. It reports whether any body ran.
func (m *succMemo) fill(f *footprints, c *program.Codec, st *program.State, i int64, v int) (ran bool) {
	for _, a := range f.byTop[:f.upTo[v]] {
		act := f.acts[a]
		g := act.Guard(st)
		m.set(a, g)
		if g {
			m.delta[a] = c.Successor(act, st, i, m.save) - i
			ran = true
		}
	}
	return ran
}

// emit writes the successor of state i for every enabled action, in
// ascending action order, to dst and returns how many it wrote.
func (m *succMemo) emit(i int64, dst []int32) int64 {
	k := 0
	for w, word := range m.on {
		for ; word != 0; word &= word - 1 {
			dst[k] = int32(i + m.delta[w<<6|bits.TrailingZeros64(word)])
			k++
		}
	}
	return int64(k)
}

// staleGuard returns the first action whose memoized guard differs from
// a fresh evaluation at st, or -1.
func (m *succMemo) staleGuard(f *footprints, st *program.State) int {
	for a, act := range f.acts {
		if act.Guard(st) != (m.on[a>>6]&(1<<(a&63)) != 0) {
			return a
		}
	}
	return -1
}

// staleSucc returns the first enabled action whose memoized successor
// differs from a fresh Codec.Successor at st, full index i, or -1.
func (m *succMemo) staleSucc(f *footprints, c *program.Codec, st *program.State, i int64) int {
	for w, word := range m.on {
		for ; word != 0; word &= word - 1 {
			a := w<<6 | bits.TrailingZeros64(word)
			if c.Successor(f.acts[a], st, i, m.save) != i+m.delta[a] {
				return a
			}
		}
	}
	return -1
}

// workerScratch returns n zeroed elements for one worker's hot writes,
// followed by a cache line of unused capacity: two workers' scratch
// arrays allocated this way never share a cache line.
func workerScratch[T any](n int) []T {
	var zero T
	return make([]T, n, n+cacheLine/int(unsafe.Sizeof(zero)))
}

// cacheLine is the false-sharing unit workerScratch pads by.
const cacheLine = 64

// undeclaredRead refuses the space for the action a spot check caught
// (w.extra) at state w.state: its memoized guard or successor (what)
// differs from a fresh evaluation, so it reads a variable outside its
// declared Reads.
func (sp *Space) undeclaredRead(w *witness, what string) error {
	a := sp.P.Actions[w.extra]
	names := make([]string, len(a.Reads))
	for k, id := range a.Reads {
		names[k] = sp.P.Schema.Spec(id).Name
	}
	return fmt.Errorf("verify: action %q of %q reads a variable outside its declared Reads {%s}: its %s at %s disagrees with the one memoized from them",
		a.Name, sp.P.Name, strings.Join(names, ", "), what, sp.State(w.state))
}

// undeclaredWrite names the action behind a failed write check at full
// index i, on the cold path: the first enabled action whose write-local
// successor differs from the reference Schema.Index of Apply, or that
// leaves the state changed once its writes are restored.
func (sp *Space) undeclaredWrite(f *footprints, i int64) error {
	st := sp.P.Schema.StateAt(i)
	save := make([]int32, f.maxWrites)
	for _, a := range sp.P.Actions {
		if !a.Guard(st) {
			continue
		}
		local := st.Clone()
		if sp.codec.Successor(a, local, i, save) != sp.P.Schema.Index(a.Apply(st)) || !local.Equal(st) {
			return fmt.Errorf("verify: action %q of %q writes a variable outside its declared Writes (at state %s)",
				a.Name, sp.P.Name, st)
		}
	}
	return fmt.Errorf("verify: the actions of %q left state %s changed, but none does so alone", sp.P.Name, st)
}

// predIndex returns the reverse CSR (per-state predecessor lists, one
// entry per forward edge, source-ascending), building and caching it on
// the shared succIndex the first time any pass needs it. Only the
// metrics passes walk backwards (backwardWaves); the convergence verdicts
// run on the forward CSR alone. buildPredScatter fills it on every tier,
// on the spill tier into mmap'd segments sealed read-only after the
// build.
func (sp *Space) predIndex(ctx context.Context) (revOff []uint32, revPred []int32, err error) {
	g := sp.idx
	g.revMu.Lock()
	defer g.revMu.Unlock()
	if g.revOff != nil {
		return g.revOff, g.revPred, nil
	}
	span := startPass(sp.opts, PassPredTable, sp.Count)
	E := g.numEdges()

	var seal func()
	if sp.arena != nil {
		offSeg, err := sp.arena.allocSegment(4 * (sp.Count + 1))
		if err != nil {
			return nil, nil, err
		}
		predSeg, err := sp.arena.allocSegment(4 * E)
		if err != nil {
			return nil, nil, err
		}
		revOff, revPred = u32view(offSeg.data), i32view(predSeg.data)
		seal = func() { offSeg.seal(); predSeg.seal() }
	} else {
		revOff, revPred = make([]uint32, sp.Count+1), make([]int32, E)
	}

	if err := sp.buildPredScatter(ctx, revOff, revPred); err != nil {
		return nil, nil, err
	}
	if seal != nil {
		seal()
		span.addSpilled(4*int64(len(revOff)) + 4*int64(len(revPred)))
	}
	g.revOff, g.revPred = revOff, revPred
	span.endSized(sp.Count, E, 4*int64(len(revOff))+4*int64(len(revPred)))
	return revOff, revPred, nil
}

// buildPredScatter fills the reverse CSR without any scratch array:
// atomic in-degree counts, a sequential prefix sum, an atomic per-target
// cursor scatter of the sources, and a per-target ascending sort. The
// final sort makes the output source-ascending per target, so it is
// byte-identical for every worker count and schedule.
func (sp *Space) buildPredScatter(ctx context.Context, revOff []uint32, revPred []int32) error {
	g := sp.idx
	workers := sp.workers()

	// Phase 1: atomic in-degree counts.
	deg := make([]int32, sp.Count)
	err := parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
		for _, j := range g.edges[g.offsets[lo]:g.offsets[hi]] {
			atomic.AddInt32(&deg[j], 1)
		}
	})
	if err != nil {
		return err
	}

	// Phase 2: sequential prefix sum; deg becomes the scatter cursor.
	var run int64
	for t := int64(0); t < sp.Count; t++ {
		revOff[t] = uint32(run)
		run += int64(deg[t])
		deg[t] = 0
	}
	revOff[sp.Count] = uint32(run)

	// Phase 3: scatter sources behind an atomic per-target cursor.
	err = parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			for _, j := range g.out(i) {
				slot := int64(revOff[j]) + int64(atomic.AddInt32(&deg[j], 1)) - 1
				revPred[slot] = int32(i)
			}
		}
	})
	if err != nil {
		return err
	}

	// Phase 4: per-target ascending sort restores determinism.
	return parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
		for t := lo; t < hi; t++ {
			if row := revPred[revOff[t]:revOff[t+1]]; len(row) > 1 {
				slices.Sort(row)
			}
		}
	})
}

// actionAt recovers the action behind the rank-th enabled edge of state i.
// Edges are stored in ascending action order, so the rank is the number of
// enabled guards preceding the action; only witness construction pays this
// rescan.
func (sp *Space) actionAt(i, rank int64) *program.Action {
	st := sp.State(i)
	n := int64(0)
	for _, a := range sp.P.Actions {
		if !a.Guard(st) {
			continue
		}
		if n == rank {
			return a
		}
		n++
	}
	return nil
}
