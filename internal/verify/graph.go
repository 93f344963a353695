package verify

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

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

// predScatterDensity is the guard density (E / (Count·nA)) above which
// the in-RAM reverse-CSR build switches from the partitioned counting
// sort to the atomic-scatter build. Dense instances (the printed mod-K
// ring measures 77%) lose ~10% single-core to the counting sort's extra
// packed-scratch pass; sparse ones favour the cache behaviour of the
// partition sort. Both builders produce byte-identical (source-ascending)
// output. A var so the benchmark pair can pin each builder.
var predScatterDensity = 0.5

// predBuilder forces one reverse-CSR builder, for tests and benchmarks:
// 0 = density-adaptive (default), 1 = counting sort, 2 = atomic scatter.
var predBuilder = 0

// succIndex is the CSR transition graph of a Space, covering only enabled
// transitions: state i's successors are edges[offsets[i]:offsets[i+1]], in
// ascending action order. The entry payload is the 4-byte successor index
// alone — the acting action is implicit as the edge's rank among i's
// enabled guards and is recovered by actionAt only on witness paths, so
// edge storage stays at 4 bytes even for near-dense programs.
//
// The reverse CSR (predecessors, multi-edges kept) is built lazily by
// predIndex on first use and cached here; derived stage spaces share the
// struct by pointer, so one Check builds it at most once.
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
func (sp *Space) buildSuccIndex(ctx context.Context) error {
	// The progress hint is 2·Count: the counting sweep and the fill sweep
	// each visit every state once.
	span := startPass(sp.opts, PassSuccTable, 2*sp.Count)
	workers := sp.workers()
	nChunks := (sp.Count + chunkStates - 1) / chunkStates
	chunkBase := make([]int64, nChunks)
	scr := sp.newStates()
	err := parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(worker int, lo, hi int64) {
		st := scr[worker]
		var n int64
		for i := lo; i < hi; i++ {
			sp.walkInto(lo, i, st)
			for _, a := range sp.P.Actions {
				if a.Guard(st) {
					n++
				}
			}
		}
		chunkBase[lo/chunkStates] = n
	})
	if err != nil {
		return err
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
	pairs := sp.newStatePairs()
	err = parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(worker int, lo, hi int64) {
		st, tmp := pairs[worker].st, pairs[worker].tmp
		cur := chunkBase[lo/chunkStates]
		for i := lo; i < hi; i++ {
			sp.walkInto(lo, i, st)
			g.offsets[i] = uint32(cur)
			for _, a := range sp.P.Actions {
				if !a.Guard(st) {
					continue
				}
				a.ApplyInto(st, tmp)
				g.edges[cur] = int32(sp.indexOf(tmp))
				cur++
			}
		}
	})
	if err != nil {
		return err
	}
	g.offsets[sp.Count] = uint32(total)
	sp.idx = g
	if sp.arena != nil {
		span.addSpilled(g.fwdBytes())
	}
	span.endSized(sp.Count, total, g.fwdBytes())
	return nil
}

// predIndex returns the reverse CSR (per-state predecessor lists, one
// entry per forward edge so multiplicities match outstanding-counts
// exactly), building and caching it on the shared succIndex the first time
// any pass needs it. Two builders produce byte-identical source-ascending
// output:
//
//	counting sort:  a partitioned 4-phase counting sort with a packed
//	                (target, source) scratch array of 8·E bytes — no
//	                per-edge atomics, cache-friendly on sparse graphs;
//	atomic scatter: atomic in-degree counts, a prefix sum, an atomic
//	                per-target cursor scatter and a per-target sort — no
//	                scratch array at all.
//
// The in-RAM path picks by measured guard density (predScatterDensity);
// the spill tier always scatters (the 8·E scratch is exactly the RAM the
// tier exists to avoid) into mmap'd segments sealed read-only after the
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

	scatter := sp.arena != nil
	switch predBuilder {
	case 1:
		scatter = false
	case 2:
		scatter = true
	default:
		if !scatter && sp.Count > 0 && sp.nA > 0 {
			density := float64(E) / (float64(sp.Count) * float64(sp.nA))
			scatter = density >= predScatterDensity
		}
	}

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

	if scatter {
		err = sp.buildPredScatter(ctx, revOff, revPred)
	} else {
		err = sp.buildPredCounting(ctx, revOff, revPred)
	}
	if err != nil {
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

// buildPredCounting fills the reverse CSR with a parallel counting sort
// over target partitions — no per-edge atomics, and the result is
// byte-identical for every worker count:
//
//	phase A: per-(source-chunk, target-partition) edge counts;
//	phase B: sequential prefix sums assigning every (chunk, partition)
//	         pair a disjoint slice of a partition-grouped scratch array;
//	phase C: sharded scatter of (target, source) pairs into the scratch
//	         (each chunk owns its reserved slots);
//	phase D: per-partition counting sort into the final arrays (each
//	         partition owns a disjoint range of revOff/revPred).
func (sp *Space) buildPredCounting(ctx context.Context, revOff []uint32, revPred []int32) error {
	g := sp.idx
	workers := sp.workers()
	nChunks := (sp.Count + chunkStates - 1) / chunkStates
	nPart := int64(workers) * 4
	if nPart > nChunks {
		nPart = nChunks
	}
	if nPart < 1 {
		nPart = 1
	}
	partSize := (sp.Count + nPart - 1) / nPart
	E := g.numEdges()

	// Phase A: count edges per (source chunk, target partition).
	pos := make([]int64, nChunks*nPart)
	err := parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
		row := pos[(lo/chunkStates)*nPart : (lo/chunkStates+1)*nPart]
		for _, j := range g.edges[g.offsets[lo]:g.offsets[hi]] {
			row[int64(j)/partSize]++
		}
	})
	if err != nil {
		return err
	}

	// Phase B: partition-major prefix sum; pos becomes the scatter cursor
	// of each (chunk, partition) pair, partStart the final edge range of
	// each partition.
	partStart := make([]int64, nPart+1)
	var run int64
	for p := int64(0); p < nPart; p++ {
		partStart[p] = run
		for c := int64(0); c < nChunks; c++ {
			pos[c*nPart+p], run = run, run+pos[c*nPart+p]
		}
	}
	partStart[nPart] = run

	// Phase C: scatter packed (target, source) pairs, grouped by target
	// partition. Within a partition the scratch order is source-ascending
	// because chunks were laid out in ascending order by phase B.
	scratch := make([]uint64, E)
	err = parallelRange(ctx, workers, sp.Count, sp.opts.Progress, func(_ int, lo, hi int64) {
		cur := pos[(lo/chunkStates)*nPart : (lo/chunkStates+1)*nPart]
		for i := lo; i < hi; i++ {
			for _, j := range g.out(i) {
				p := int64(j) / partSize
				scratch[cur[p]] = uint64(j)<<32 | uint64(i)
				cur[p]++
			}
		}
	})
	if err != nil {
		return err
	}

	// Phase D: per-partition counting sort into the final arrays. deg is
	// shared scratch but partitions own disjoint target ranges.
	deg := make([]int32, sp.Count)
	err = parallelItems(ctx, workers, int(nPart), func(pi int) {
		p := int64(pi)
		tlo, thi := p*partSize, min((p+1)*partSize, sp.Count)
		seg := scratch[partStart[p]:partStart[p+1]]
		for _, packed := range seg {
			deg[packed>>32]++
		}
		cursor := partStart[p]
		for t := tlo; t < thi; t++ {
			revOff[t] = uint32(cursor)
			cursor += int64(deg[t])
			deg[t] = 0
		}
		for _, packed := range seg {
			t := packed >> 32
			revPred[int64(revOff[t])+int64(deg[t])] = int32(packed & math.MaxUint32)
			deg[t]++
		}
	})
	if err != nil {
		return err
	}
	revOff[sp.Count] = uint32(E)
	return nil
}

// buildPredScatter fills the reverse CSR without any scratch array:
// atomic in-degree counts, a sequential prefix sum, an atomic per-target
// cursor scatter of the sources, and a per-target ascending sort. The
// final sort makes the output source-ascending per target — byte-identical
// to the counting-sort builder for every worker count and schedule.
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
