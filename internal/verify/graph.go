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
	"syscall"
	"unsafe"

	"nonmask/internal/program"
)

// succIndexBudget caps the memory spent on each in-RAM transition index
// (the forward CSR, and separately the reverse CSR mirroring it). The
// walk charges the forward index as it grows, E being the edges so far:
//
//	forward bytes = 4·(Count+nChunks) + 4·E   (uint32 offsets + int32 targets)
//
// An in-RAM tier is refused with errOverBudget the moment it passes the
// budget, the SpaceAuto ladder's cue to escalate; the spill tier is
// bounded by the disk instead. A var so tests can force the escalation.
var succIndexBudget = int64(1) << 31 // 2 GiB per index

// errOverBudget marks an in-RAM tier refused because its CSR busts
// succIndexBudget.
var errOverBudget = errors.New("verify: CSR over the in-RAM budget")

// csrFits refuses a CSR its fixed-width arrays cannot address: state ids
// are int32, and offsets are uint32 positions in an edge array of edges
// entries — all E for the reverse index, one chunk's for the forward
// one (fwdFits). Past either limit the build would silently corrupt.
func csrFits(count, edges int64) error {
	if count > math.MaxInt32 {
		return fmt.Errorf("verify: %d states exceed the CSR's int32 state ids", count)
	}
	if edges > math.MaxUint32 {
		return fmt.Errorf("verify: %d edges exceed the CSR's uint32 offsets", edges)
	}
	return nil
}

// fwdFits is csrFits for the forward index of nA actions: its offsets
// address at most chunkStates·nA edges, whatever E is.
func fwdFits(count int64, nA int) error { return csrFits(count, chunkStates*int64(nA)) }

// succIndex is the CSR transition graph of a Space, covering only enabled
// transitions in ascending action order, owned chunk by chunk: chunk c,
// states [lo, hi), keeps its edges in edges[c] and its offsets, relative
// to that slice, in off[lo+c : hi+c+1] (one sentinel per chunk). The
// entry payload is the 4-byte successor index alone — the acting
// action is implicit as the edge's rank among i's enabled guards and is
// recovered by actionAt only on witness paths, so edge storage stays at
// 4 bytes even for near-dense programs.
//
// The reverse CSR (predecessors, multi-edges kept, global offsets) is
// built lazily by predIndex when a metrics pass first walks backwards,
// and cached here; derived stage spaces share the struct by pointer, so
// one Check builds it at most once.
//
// On the spill tier both CSRs view mmap'd segment files, read-only once
// built, instead of heap slices; the owning Space's arena unmaps them at
// Close.
type succIndex struct {
	off   []uint32  // len Count+nChunks, chunk-relative
	edges [][]int32 // per chunk: successor state per enabled (state, action)
	n     int64     // E, the number of enabled edges

	revMu   sync.Mutex
	revOff  []uint32 // len Count+1; nil until built
	revPred []int32  // predecessor state per enabled edge, source-ascending
}

// out returns the successor indices of state i, one per enabled action in
// action order.
func (g *succIndex) out(i int64) []int32 {
	lo, hi := g.row(i)
	return g.edges[i>>chunkShift][lo:hi]
}

// row returns the bounds of state i's successors in its chunk's edges.
func (g *succIndex) row(i int64) (lo, hi uint32) {
	k := i + i>>chunkShift
	return g.off[k], g.off[k+1]
}

// numEdges returns E, the number of enabled transitions in the space.
func (g *succIndex) numEdges() int64 { return g.n }

// fwdBytes is the forward index's memory footprint.
func (g *succIndex) fwdBytes() int64 { return 4*int64(len(g.off)) + 4*g.n }

// build is the one walk over the space: each chunk of one parallelRange
// sets its S and T bits and appends its edges to a per-worker buffer,
// then hands them over, cloned in RAM or, on the spill tier, written to
// one edge segment at a position reserved from the atomic running edge
// total and mapped read-only once the walk ends. In RAM that total
// cancels the walk with errOverBudget the moment the index passes
// succIndexBudget, before it is materialized.
//
// Outside quotient mode a per-worker succMemo re-evaluates after each
// odometer step only the actions whose footprint the step changed; every
// other enabled action's edge is the state's index plus its memoized
// delta. The footprints are checked, not trusted: at each chunk's last
// state by a fresh evaluation (stale), and by re-encoding the walked
// state wherever a body ran. A broken S⇒T is reported first, then an
// undeclared read, then an undeclared write.
func (sp *Space) build(ctx context.Context) error {
	f, err := newFootprints(sp.P)
	if err != nil {
		return err
	}
	if err := fwdFits(sp.Count, sp.nA); err != nil {
		return err
	}
	span := startPass(sp.opts, PassSuccTable, sp.Count)
	workers := sp.workers()
	nChunks := (sp.Count + chunkStates - 1) / chunkStates
	offBytes := 4 * (sp.Count + nChunks)
	g := &succIndex{edges: make([][]int32, nChunks)}
	var (
		edgeSeg *spillSeg
		at      []int64 // spill tier: each chunk's first position in edgeSeg
	)
	if sp.arena != nil {
		offSeg, err := sp.arena.allocSegment(offBytes)
		if err != nil {
			return err
		}
		defer offSeg.seal()
		if edgeSeg, err = sp.arena.openSegment(); err != nil {
			return err
		}
		g.off, at = u32view(offSeg.data), make([]int64, nChunks)
	} else {
		g.off = make([]uint32, sp.Count+nChunks)
	}

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var total, visited atomic.Int64
	commit := func(c, states int64, buf []int32) {
		n := int64(len(buf))
		e, seen := total.Add(n), visited.Add(states)
		if edgeSeg != nil {
			at[c] = e - n
			if _, err := edgeSeg.f.WriteAt(asBytes(buf), 4*(e-n)); err != nil {
				cancel(fmt.Errorf("verify: spill segment write: %w", err))
			}
			return
		}
		if bytes := offBytes + 4*e; bytes > succIndexBudget {
			cancel(fmt.Errorf("%w: %d edges over %d of %d states need %d bytes, budget %d",
				errOverBudget, e, seen, sp.Count, bytes, succIndexBudget))
			return
		}
		g.edges[c] = slices.Clone(buf)
	}

	pairs := sp.newStatePairs()
	memos := make([]*succMemo, workers)
	bufs := make([][]int32, workers)
	for w := range memos {
		memos[w] = newSuccMemo(f)
	}
	sNotT, stale, unrestored := newWitness(), newWitness(), newWitness()
	err = parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(worker int, lo, hi int64) {
		st, tmp, m := pairs[worker].st, pairs[worker].tmp, memos[worker]
		c := lo >> chunkShift
		off, buf := g.off[lo+c:hi+c+1], bufs[worker][:0]
		lost := false
		for i := lo; i < hi; i++ {
			v := sp.walkInto(lo, i, st)
			s, t := sp.S.Holds(st), sp.T.Holds(st)
			if s {
				sp.inS.set(i)
			}
			if t {
				sp.inT.set(i)
			}
			if s && !t {
				sNotT.offer(i, 0)
			}
			if lost {
				continue
			}
			off[i-lo] = uint32(len(buf))
			if sp.quot != nil {
				for _, act := range f.acts {
					if act.Guard(st) {
						act.ApplyInto(st, tmp)
						buf = append(buf, int32(sp.indexOf(tmp)))
					}
				}
				continue
			}
			ran := m.fill(f, sp.codec, st, i, v)
			buf = m.emit(i, buf)
			if ran && sp.codec.Encode(st) != i {
				// Off its index, the chunk keeps only S and T from here.
				unrestored.offer(i, 0)
				sp.codec.Decode(i, st)
				lost = true
			}
		}
		bufs[worker] = buf
		if lost {
			return
		}
		off[hi-lo] = uint32(len(buf))
		if sp.quot == nil {
			if a := m.stale(f, sp.codec, st, hi-1); a >= 0 {
				stale.offer(hi-1, int64(a))
			}
			if sp.codec.Encode(st) != hi-1 {
				unrestored.offer(hi-1, 0)
			}
		}
		commit(c, hi-lo, buf)
	})
	if err != nil {
		if err = context.Cause(ctx); errors.Is(err, errOverBudget) {
			// Surface the edge count reached on the span (bytes 0 =
			// nothing materialized) before refusing the tier.
			span.endSized(visited.Load(), total.Load(), 0)
		}
		return err
	}
	switch {
	case sNotT.found():
		return fmt.Errorf("verify: S does not imply T at state %s", sp.State(sNotT.state))
	case stale.found():
		return sp.undeclaredRead(stale)
	case unrestored.found():
		return sp.undeclaredWrite(f, unrestored.state)
	}
	g.n = total.Load()
	if edgeSeg != nil {
		if err := sp.arena.mapSegment(edgeSeg, 4*g.n, syscall.PROT_READ); err != nil {
			return err
		}
		view := i32view(edgeSeg.data)
		for c := range g.edges {
			hi := min(int64(c+1)*chunkStates, sp.Count)
			g.edges[c] = view[at[c] : at[c]+int64(g.off[hi+int64(c)])]
		}
		span.addSpilled(g.fwdBytes())
	}
	sp.idx = g
	span.endSized(sp.Count, g.n, g.fwdBytes())
	return nil
}

// footprints is build's plan of a program's declared reads and
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

// succMemo is one worker's memo of every action along an ascending
// odometer walk: bit a of on is action a's guard at the current state
// and, while it is set, delta[a] is the action's successor index minus
// the state's. It trusts the declared footprints (see footprints); stale
// is the spot check of that trust. Each worker's arrays are allocated
// with a cache line of unused capacity behind them (workerScratch), so
// two workers' memos never share a cache line.
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

// fill brings the memo to st, full index i, after a step that changed
// positions [v, n) — v = 0 for a decoded state re-evaluates every
// action: each action whose footprint the step changed has its guard
// re-evaluated and, when it holds, its successor delta re-encoded. It
// reports whether any body ran.
func (m *succMemo) fill(f *footprints, c *program.Codec, st *program.State, i int64, v int) (ran bool) {
	for _, a := range f.byTop[:f.upTo[v]] {
		act, w, bit := f.acts[a], a>>6, uint64(1)<<(a&63)
		m.on[w] &^= bit
		if act.Guard(st) {
			m.on[w] |= bit
			m.delta[a] = c.Successor(act, st, i, m.save) - i
			ran = true
		}
	}
	return ran
}

// emit appends the successor of state i for every enabled action, in
// ascending action order, to dst.
func (m *succMemo) emit(i int64, dst []int32) []int32 {
	for w, word := range m.on {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(i+m.delta[w<<6|bits.TrailingZeros64(word)]))
		}
	}
	return dst
}

// stale is the chunk-end spot check of the memo at st, full index i. It
// returns the first action whose memoized guard differs from a fresh
// evaluation, else nA plus the first enabled action whose memoized
// successor differs from a fresh Codec.Successor, else -1. It stops
// with -1 at a body that leaves st changed: the write check that
// follows names that one.
func (m *succMemo) stale(f *footprints, c *program.Codec, st *program.State, i int64) int {
	for a, act := range f.acts {
		if act.Guard(st) != (m.on[a>>6]&(1<<(a&63)) != 0) {
			return a
		}
	}
	for w, word := range m.on {
		for ; word != 0; word &= word - 1 {
			a := w<<6 | bits.TrailingZeros64(word)
			d := c.Successor(f.acts[a], st, i, m.save)
			if c.Encode(st) != i {
				return -1
			}
			if d != i+m.delta[a] {
				return len(f.acts) + a
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

// undeclaredRead refuses the space for the action the spot check caught
// at state w.state (w.extra, as stale returns it): its memoized guard or
// successor differs from a fresh evaluation, so it reads a variable
// outside its declared Reads.
func (sp *Space) undeclaredRead(w *witness) error {
	what, k := "guard", int(w.extra)
	if k >= sp.nA {
		what, k = "successor", k-sp.nA
	}
	a := sp.P.Actions[k]
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
	E := g.numEdges()
	if err := csrFits(sp.Count, E); err != nil {
		return nil, nil, err
	}
	span := startPass(sp.opts, PassPredTable, sp.Count)

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

	// Phase 1: atomic in-degree counts, one forward chunk per range.
	deg := make([]int32, sp.Count)
	err := parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(_ int, lo, _ int64) {
		for _, j := range g.edges[lo>>chunkShift] {
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
