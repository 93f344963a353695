package service

import (
	"context"
	"sync"
	"time"

	"nonmask/internal/obs"
)

// record is what every id-addressed record shares, job or batch: the id,
// the event stream (its replayable log), the done channel long-polls wait
// on, and the admission and terminal stamps.
type record struct {
	id     string
	events *obs.Stream
	done   chan struct{}

	mu        sync.Mutex
	submitted time.Time
	finished  time.Time // zero until the terminal transition
}

func (r *record) rec() *record { return r }

// end publishes the terminal event and closes done: the last step of
// every record's terminal transition. The caller has made the record
// terminal under mu, exactly once; nothing publishes on the stream after.
func (r *record) end(ev obs.Event) {
	r.events.Publish(ev)
	close(r.done)
}

// endedBefore reports that the record is terminal and, when cutoff is
// non-zero, that it ended before cutoff.
func (r *record) endedBefore(cutoff time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.finished.IsZero() && (cutoff.IsZero() || r.finished.Before(cutoff))
}

// entry is one row of the record table: a *job or a *batch.
type entry interface{ rec() *record }

// table is the server's one record table: every job and batch by id, and
// each kind's ids in admission order under that kind's retention bound
// (Config.MaxRecords for jobs, maxBatches for batches). Guarded by s.mu.
type table struct {
	bus     *obs.Bus
	byID    map[string]entry
	jobs    order
	batches order
}

// order is one kind's record ids, oldest first, and its retention bound.
type order struct {
	ids []string
	max int
}

// add records e and evicts the oldest terminal records of its kind past
// the kind's bound. Live records are never evicted: the table grows
// rather than drop state.
func (t *table) add(e entry) {
	o := &t.jobs
	if _, ok := e.(*batch); ok {
		o = &t.batches
	}
	id := e.rec().id
	t.byID[id] = e
	o.ids = append(o.ids, id)
	if over := len(o.ids) - o.max; over > 0 {
		t.evict(o, over, time.Time{})
	}
}

// evict drops up to n terminal records of o's kind, oldest first, with
// their event streams; a non-zero cutoff keeps those that ended at or
// after it. It returns how many it dropped.
func (t *table) evict(o *order, n int, cutoff time.Time) int {
	kept, evicted := o.ids[:0], 0
	for _, id := range o.ids {
		if evicted < n && t.byID[id].rec().endedBefore(cutoff) {
			delete(t.byID, id)
			t.bus.Remove(id)
			evicted++
			continue
		}
		kept = append(kept, id)
	}
	o.ids = kept
	return evicted
}

// lookup finds the record of type T addressed by id.
func lookup[T entry](s *Server, id string) (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.table.byID[id].(T)
	return e, ok
}

// byID is the one id-addressed path behind the job and batch APIs: it
// finds the record of type T, applies act (a cancel) when one is given,
// long-polls the terminal transition for up to wait unless ctx ends
// first, and snapshots the status.
func byID[T entry, S any](ctx context.Context, s *Server, id string, wait time.Duration,
	act func(T), status func(T) S) (S, bool) {
	e, ok := lookup[T](s, id)
	if !ok {
		var none S
		return none, false
	}
	if act != nil {
		act(e)
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-e.rec().done:
		case <-t.C:
		case <-ctx.Done():
		}
	}
	return status(e), true
}
