// Package obs is the checker's observability layer: pass-level tracing
// and a cheap atomic progress counter, with zero dependencies beyond the
// standard library and a guaranteed no-op default.
//
// The verifier (internal/verify) runs as a sequence of sharded passes —
// space enumeration, successor-table build, closure scans, convergence
// fixpoints, fault-span and leads-to reachability. Each pass emits one
// span: a PassStat carrying the pass name, exact state count, peak
// frontier size, worker count and wall time. A Tracer receives span
// start/end events; a Progress counter is bumped once per work chunk by
// the hot loops and sampled from outside by a ticker (Watch).
//
// The package also owns the Prometheus text exposition format behind
// csserved's /metrics: WriteHeader, WriteScalar and the cumulative
// Histogram are the only writers of HELP and TYPE lines.
//
// Overhead contract: everything here is safe and free to leave off. A nil
// *Progress accepts Add/StartPass calls (one nil-check, no allocation),
// Nop is an allocation-free Tracer, and the per-span bookkeeping is a
// handful of time.Now calls per pass — invisible next to passes that scan
// millions of states. The contract is pinned by AllocsPerRun tests in
// this package and the nop-vs-untraced Check benchmarks in
// internal/verify.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// PassStat is the completed span of one verifier pass: the wire-ready
// record shared by verify.Report, service.Result, and the /metrics
// histograms.
type PassStat struct {
	// Pass is the pass name (see the Pass* constants in internal/verify
	// and the taxonomy in DESIGN §8).
	Pass string `json:"pass"`
	// States is the exact number of states (or work items, for
	// frontier-driven passes) the pass processed.
	States int64 `json:"states"`
	// Frontier is the peak BFS frontier / wave size, for the passes that
	// have one (fault-span, leads-to, the distance profile), or the peak
	// DFS depth of the arbitrary-daemon convergence pass.
	Frontier int64 `json:"frontier,omitempty"`
	// Workers is the goroutine count the pass was sharded across.
	Workers int `json:"workers"`
	// Edges is the number of enabled transitions the pass measured or
	// materialized — set by the index-building passes (succ_table,
	// pred_table), 0 elsewhere.
	Edges int64 `json:"edges,omitempty"`
	// Bytes is the memory footprint of the structure the pass built
	// (succ_table, pred_table). 0 when nothing was materialized — e.g. a
	// succ_table span whose measured edge set busted the budget.
	Bytes int64 `json:"bytes,omitempty"`
	// SpilledBytes is the number of bytes the pass wrote to disk-backed
	// spill storage (mmap'd CSR segment files, sorted frontier runs). Set
	// only by spill-mode verification runs; the summary `spill` span
	// carries the run's totals.
	SpilledBytes int64 `json:"spilled_bytes,omitempty"`
	// ElapsedMS is the pass's wall-clock time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Elapsed returns the span's wall time as a duration.
func (p PassStat) Elapsed() time.Duration {
	return time.Duration(p.ElapsedMS * float64(time.Millisecond))
}

// StatesPerSecond returns the pass's throughput, or 0 for an
// instantaneous span.
func (p PassStat) StatesPerSecond() float64 {
	if p.ElapsedMS <= 0 {
		return 0
	}
	return float64(p.States) / (p.ElapsedMS / 1000)
}

// Tracer receives pass span events. Implementations must be safe for
// concurrent use: stage passes (stair steps, leads-to's embedded
// convergence check) can emit while an outer span is open, and the
// service traces many jobs at once through one sink.
type Tracer interface {
	// PassStart marks the beginning of the named pass. total is the
	// pass's size hint in states/work items (0 when unknown), the same
	// hint Progress.StartPass receives — live consumers use it to render
	// completion percentages before the span ends.
	PassStart(pass string, total int64)
	// PassEnd delivers the completed pass's statistics.
	PassEnd(stat PassStat)
}

// Nop is the allocation-free no-op Tracer: the explicit spelling of
// "tracing off" for benchmarks and default wiring.
type Nop struct{}

// PassStart does nothing.
func (Nop) PassStart(string, int64) {}

// PassEnd does nothing.
func (Nop) PassEnd(PassStat) {}

// Collector is a Tracer that accumulates completed spans in emission
// order and forwards every event to Next, when set. The zero value is
// ready to use; it is safe for concurrent use if Next is.
type Collector struct {
	// Next receives each span event after the collector has recorded it.
	Next Tracer

	mu    sync.Mutex
	stats []PassStat
}

// PassStart forwards the pass start; the collector only records
// completions.
func (c *Collector) PassStart(pass string, total int64) {
	if c.Next != nil {
		c.Next.PassStart(pass, total)
	}
}

// PassEnd appends the completed span and forwards it.
func (c *Collector) PassEnd(stat PassStat) {
	c.mu.Lock()
	c.stats = append(c.stats, stat)
	c.mu.Unlock()
	if c.Next != nil {
		c.Next.PassEnd(stat)
	}
}

// Passes returns a copy of the collected spans, in completion order.
func (c *Collector) Passes() []PassStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]PassStat(nil), c.stats...)
}

// FormatTable renders spans as the fixed-width, human-readable pass table
// printed by csverify -trace and gclrun -trace.
func FormatTable(stats []PassStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %10s %12s %10s %8s %12s %12s\n",
		"pass", "states", "frontier", "edges", "bytes", "workers", "elapsed", "states/s")
	var totalMS float64
	for _, s := range stats {
		frontier := "-"
		if s.Frontier > 0 {
			frontier = fmt.Sprintf("%d", s.Frontier)
		}
		edges := "-"
		if s.Edges > 0 {
			edges = fmt.Sprintf("%d", s.Edges)
		}
		bytes := "-"
		if s.Bytes > 0 {
			bytes = formatBytes(s.Bytes)
		}
		fmt.Fprintf(&b, "%-16s %12d %10s %12s %10s %8d %12s %12s\n",
			s.Pass, s.States, frontier, edges, bytes, s.Workers,
			s.Elapsed().Round(time.Microsecond), formatRate(s.StatesPerSecond()))
		totalMS += s.ElapsedMS
	}
	fmt.Fprintf(&b, "%-16s %12s %10s %12s %10s %8s %12s\n", "total", "", "", "", "", "",
		(time.Duration(totalMS * float64(time.Millisecond))).Round(time.Microsecond))
	return b.String()
}

// formatBytes renders a byte count compactly (1.2GB, 850MB, 64kB, ...).
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fkB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// formatRate renders a states/second figure compactly (1.2M, 850k, ...).
func formatRate(r float64) string {
	switch {
	case r <= 0:
		return "-"
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	default:
		return fmt.Sprintf("%.0f", r)
	}
}

// WriteBreakdown writes a one-line-per-pass share-of-total breakdown,
// aggregating repeated passes (closure runs once per predicate, stages
// re-enter convergence) by name. Used by csserved -load and debugging
// sessions that want "where did the time go" without the full table.
func WriteBreakdown(w io.Writer, stats []PassStat) {
	type agg struct {
		name   string
		ms     float64
		states int64
		n      int
	}
	byName := map[string]*agg{}
	var order []string
	var totalMS float64
	for _, s := range stats {
		a, ok := byName[s.Pass]
		if !ok {
			a = &agg{name: s.Pass}
			byName[s.Pass] = a
			order = append(order, s.Pass)
		}
		a.ms += s.ElapsedMS
		a.states += s.States
		a.n++
		totalMS += s.ElapsedMS
	}
	sort.SliceStable(order, func(i, j int) bool {
		return byName[order[i]].ms > byName[order[j]].ms
	})
	for _, name := range order {
		a := byName[name]
		share := 0.0
		if totalMS > 0 {
			share = 100 * a.ms / totalMS
		}
		fmt.Fprintf(w, "%-16s %6.1f%% %10.2fms %12d states (%d spans)\n",
			a.name, share, a.ms, a.states, a.n)
	}
}
