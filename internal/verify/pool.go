package verify

import (
	"context"
	"sync"
	"sync/atomic"

	"nonmask/internal/obs"
)

// chunkStates is the work-stealing grain of the sharded passes, and the
// grain the forward CSR is owned by (succIndex). It is a multiple of 64
// so that two workers filling the same bitset from different chunks
// never write the same word (see bitset's concurrency contract).
const (
	chunkShift  = 14
	chunkStates = 1 << chunkShift
)

// parallelRange runs fn over [0, n) split into chunkStates-sized chunks,
// handed out to `workers` goroutines through an atomic cursor. fn receives
// its worker id (0..workers-1, for indexing per-worker scratch) and a
// half-open index range. Cancellation is polled between chunks: the
// returned error is ctx.Err() when the context fires mid-pass.
//
// With workers == 1 the range runs on the calling goroutine in ascending
// order — the sequential mode of every pass is the one-worker instance of
// the parallel one. Witness-producing passes always scan the whole range
// and keep the minimum-index witness, so verdicts and witnesses cannot
// depend on the worker count.
//
// prog, when non-nil, is bumped by the chunk size after each chunk — the
// single choke point that gives every sharded pass live progress for one
// nil-check and one atomic add per ~16k states.
func parallelRange(ctx context.Context, workers int, n int64, prog *obs.Progress, fn func(worker int, lo, hi int64)) error {
	if n <= 0 {
		return ctx.Err()
	}
	nChunks := (n + chunkStates - 1) / chunkStates
	if workers > int(nChunks) {
		workers = int(nChunks)
	}
	if workers <= 1 {
		for c := int64(0); c < nChunks; c++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			lo := c * chunkStates
			hi := min(lo+chunkStates, n)
			fn(0, lo, hi)
			prog.Add(hi - lo)
		}
		return ctx.Err()
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil {
				c := cursor.Add(1) - 1
				if c >= nChunks {
					return
				}
				lo := c * chunkStates
				hi := min(lo+chunkStates, n)
				fn(worker, lo, hi)
				prog.Add(hi - lo)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// witness tracks the lowest-index counterexample found by a sharded pass.
// Workers race to publish; keeping the minimum makes every pass's reported
// witness deterministic — independent of worker count and scheduling.
type witness struct {
	mu    sync.Mutex
	state int64 // state index, -1 = none
	extra int64 // pass-specific payload (e.g. action index)
}

func newWitness() *witness { return &witness{state: -1} }

// offer records (state, extra) if it improves on the current minimum.
func (w *witness) offer(state, extra int64) {
	w.mu.Lock()
	if w.state < 0 || state < w.state {
		w.state, w.extra = state, extra
	}
	w.mu.Unlock()
}

// found reports whether any witness was offered.
func (w *witness) found() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state >= 0
}
