package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"nonmask/internal/metrics"
	"nonmask/internal/obs"
	"nonmask/internal/verify"
)

// maxLatencySamples bounds the retained check-latency sample window the
// /metrics quantiles are computed over.
const maxLatencySamples = 4096

// passBuckets are the upper bounds (seconds) of the per-pass latency
// histograms — exponential-ish from half a millisecond to a minute, the
// plausible span between a cached three-node ring and a 60s-deadline
// multi-million-state check.
var passBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// queueWaitBuckets are the upper bounds (seconds) of the admit→run
// latency histogram: sub-millisecond pickup on an idle server up to a
// minute of queueing behind a saturated executor pool.
var queueWaitBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// passHist is one pass's cumulative latency histogram plus the totals
// backing its states/sec gauge and the index-size counters. Guarded by
// Metrics.passMu.
type passHist struct {
	buckets []int64 // observation counts per passBuckets bound
	count   int64
	sum     float64 // seconds
	states  int64
	edges   int64 // enabled transitions measured by index-building passes
	bytes   int64 // bytes materialized by index-building passes
}

func (h *passHist) observe(seconds float64, states, edges, bytes int64) {
	for i, le := range passBuckets {
		if seconds <= le {
			h.buckets[i]++
		}
	}
	h.count++
	h.sum += seconds
	h.states += states
	h.edges += edges
	h.bytes += bytes
}

// Metrics holds the service's counters and gauges. All fields are updated
// atomically; the latency sample window has its own lock. Rendered as
// Prometheus text exposition format by WritePrometheus.
type Metrics struct {
	// Submitted counts accepted job submissions (including cache hits).
	Submitted atomic.Int64
	// Rejected counts submissions turned away with 429 (queue full) or
	// 503 (draining).
	Rejected atomic.Int64
	// Completed counts jobs whose verify.Check run finished successfully.
	Completed atomic.Int64
	// Failed counts jobs whose check returned an error (including
	// deadline expiry).
	Failed atomic.Int64
	// Canceled counts jobs canceled before or during execution.
	Canceled atomic.Int64
	// CacheHits / CacheMisses count content-addressed cache lookups at
	// submission time.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// Coalesced counts submissions that attached to an identical in-flight
	// job (single-flight) instead of enqueueing their own check.
	Coalesced atomic.Int64
	// StoreHits counts cache hits served by the persistent backend (a
	// subset of CacheHits: the memory tier missed, the log had it).
	StoreHits atomic.Int64
	// StorePuts counts verdicts written through to the persistent backend.
	StorePuts atomic.Int64
	// StoreErrors counts failed persistent reads/writes (the verdict still
	// lands in memory; durability is degraded, correctness is not).
	StoreErrors atomic.Int64
	// BatchesSubmitted / BatchesCompleted / BatchesCanceled count batch
	// lifecycles; BatchJobs counts member jobs admitted through batches.
	BatchesSubmitted atomic.Int64
	BatchesCompleted atomic.Int64
	BatchesCanceled  atomic.Int64
	BatchJobs        atomic.Int64
	// BatchesInFlight is the number of batches not yet terminal.
	BatchesInFlight atomic.Int64
	// QueueDepth is the number of jobs waiting in the queue.
	QueueDepth atomic.Int64
	// InFlight is the number of executor goroutines currently inside
	// verify.Check.
	InFlight atomic.Int64
	// Satisfied / Violated count completed jobs by verdict.
	Satisfied atomic.Int64
	Violated  atomic.Int64
	// SaboteurJobs counts completed jobs that ran the adversarial
	// fault-schedule search; SaboteurOptimal counts those that proved
	// k-bounded optimality, SaboteurBudgetExhausted those that returned
	// the incumbent after the expansion budget ran out, and
	// SaboteurExpanded totals product-graph node expansions.
	SaboteurJobs            atomic.Int64
	SaboteurOptimal         atomic.Int64
	SaboteurBudgetExhausted atomic.Int64
	SaboteurExpanded        atomic.Int64
	// SpilledBytes totals bytes the checker's disk tier wrote (mmap'd CSR
	// segments plus frontier spool runs), summed over every completed
	// job's pass spans.
	SpilledBytes atomic.Int64
	// AuthFailures counts requests rejected with 401 (bad or missing
	// bearer token, or a replication call without the cluster token).
	AuthFailures atomic.Int64
	// RateLimited counts submissions bounced by a tenant's token bucket;
	// QuotaRejected counts those bounced by an in-flight quota. Both are
	// subsets of Rejected.
	RateLimited   atomic.Int64
	QuotaRejected atomic.Int64
	// HighPriority counts jobs admitted to the high-priority queue.
	HighPriority atomic.Int64
	// Forwarded counts submissions shipped to their owner node (direct
	// forwards plus batch members mirroring remote runs); ForwardFallbacks
	// counts those that failed in transport and ran locally instead.
	Forwarded        atomic.Int64
	ForwardFallbacks atomic.Int64
	// Proxied counts id-addressed requests reverse-proxied to the node
	// named in the id prefix.
	Proxied atomic.Int64

	mu        sync.Mutex
	latencies []float64 // seconds, newest-last, bounded window

	passMu sync.Mutex
	passes map[string]*passHist // by pass name

	// queueMu guards the admit→run wait histogram (queueWaitBuckets).
	queueMu          sync.Mutex
	queueWaitBuckets []int64
	queueWaitCount   int64
	queueWaitSum     float64 // seconds
}

// ObserveLatency records one check duration (in seconds).
func (m *Metrics) ObserveLatency(seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.latencies) >= maxLatencySamples {
		copy(m.latencies, m.latencies[1:])
		m.latencies = m.latencies[:len(m.latencies)-1]
	}
	m.latencies = append(m.latencies, seconds)
}

// ObservePass records one completed verifier pass span into the per-pass
// latency histogram and throughput totals.
func (m *Metrics) ObservePass(stat obs.PassStat) {
	m.passMu.Lock()
	defer m.passMu.Unlock()
	if m.passes == nil {
		m.passes = make(map[string]*passHist)
	}
	h, ok := m.passes[stat.Pass]
	if !ok {
		h = &passHist{buckets: make([]int64, len(passBuckets))}
		m.passes[stat.Pass] = h
	}
	h.observe(stat.ElapsedMS/1000, stat.States, stat.Edges, stat.Bytes)
	// Only the per-check "spill" summary span counts toward the spill
	// total: the index-building spans carry their own segment bytes, which
	// the summary already includes — adding both would double-count.
	if stat.Pass == verify.PassSpill && stat.SpilledBytes > 0 {
		m.SpilledBytes.Add(stat.SpilledBytes)
	}
}

// ObserveQueueWait records one job's admit→run latency (in seconds): the
// time between queue admission and executor pickup.
func (m *Metrics) ObserveQueueWait(seconds float64) {
	m.queueMu.Lock()
	defer m.queueMu.Unlock()
	if m.queueWaitBuckets == nil {
		m.queueWaitBuckets = make([]int64, len(queueWaitBuckets))
	}
	for i, le := range queueWaitBuckets {
		if seconds <= le {
			m.queueWaitBuckets[i]++
		}
	}
	m.queueWaitCount++
	m.queueWaitSum += seconds
}

// LatencySummary returns order statistics over the retained check-latency
// window (seconds).
func (m *Metrics) LatencySummary() metrics.Summary {
	m.mu.Lock()
	sample := make([]float64, len(m.latencies))
	copy(sample, m.latencies)
	m.mu.Unlock()
	return metrics.Summarize(sample)
}

// WritePrometheus renders every counter and gauge in Prometheus text
// exposition format under the csserved_ prefix.
func (m *Metrics) WritePrometheus(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("csserved_jobs_submitted_total", "Accepted job submissions (including cache hits).", m.Submitted.Load())
	counter("csserved_jobs_rejected_total", "Submissions rejected by admission control.", m.Rejected.Load())
	counter("csserved_jobs_completed_total", "Jobs whose check ran to completion.", m.Completed.Load())
	counter("csserved_jobs_failed_total", "Jobs whose check returned an error.", m.Failed.Load())
	counter("csserved_jobs_canceled_total", "Jobs canceled before or during execution.", m.Canceled.Load())
	counter("csserved_cache_hits_total", "Content-addressed cache hits at submission.", m.CacheHits.Load())
	counter("csserved_cache_misses_total", "Content-addressed cache misses at submission.", m.CacheMisses.Load())
	counter("csserved_jobs_coalesced_total", "Submissions coalesced onto an identical in-flight job.", m.Coalesced.Load())
	counter("csserved_store_hits_total", "Cache hits served by the persistent store backend.", m.StoreHits.Load())
	counter("csserved_store_puts_total", "Verdicts written through to the persistent store backend.", m.StorePuts.Load())
	counter("csserved_store_errors_total", "Failed persistent store reads/writes.", m.StoreErrors.Load())
	counter("csserved_batches_submitted_total", "Accepted batch submissions.", m.BatchesSubmitted.Load())
	counter("csserved_batches_completed_total", "Batches that ran every member to a terminal state.", m.BatchesCompleted.Load())
	counter("csserved_batches_canceled_total", "Batches canceled before completion.", m.BatchesCanceled.Load())
	counter("csserved_batch_jobs_total", "Member jobs admitted through batches.", m.BatchJobs.Load())
	counter("csserved_verdict_satisfied_total", "Completed checks with a satisfied verdict.", m.Satisfied.Load())
	counter("csserved_verdict_violated_total", "Completed checks with a violated verdict.", m.Violated.Load())
	counter("csserved_saboteur_jobs_total", "Completed jobs that ran the saboteur search.", m.SaboteurJobs.Load())
	counter("csserved_saboteur_optimal_total", "Saboteur searches that proved k-bounded optimality.", m.SaboteurOptimal.Load())
	counter("csserved_saboteur_budget_exhausted_total", "Saboteur searches cut off by the expansion budget.", m.SaboteurBudgetExhausted.Load())
	counter("csserved_saboteur_expanded_nodes_total", "Product-graph nodes expanded by saboteur searches.", m.SaboteurExpanded.Load())
	counter("csserved_spill_bytes_total", "Bytes written by the checker's disk tier (CSR segments plus frontier spool runs).", m.SpilledBytes.Load())
	counter("csserved_auth_failures_total", "Requests rejected for a bad or missing bearer token.", m.AuthFailures.Load())
	counter("csserved_rate_limited_total", "Submissions bounced by a tenant's token-bucket rate limit.", m.RateLimited.Load())
	counter("csserved_quota_rejected_total", "Submissions bounced by a tenant's in-flight quota.", m.QuotaRejected.Load())
	counter("csserved_high_priority_jobs_total", "Jobs admitted to the high-priority queue.", m.HighPriority.Load())
	counter("csserved_forwarded_jobs_total", "Submissions forwarded to their owner node.", m.Forwarded.Load())
	counter("csserved_forward_fallbacks_total", "Forwards that failed in transport and ran locally instead.", m.ForwardFallbacks.Load())
	counter("csserved_proxied_requests_total", "Id-addressed requests reverse-proxied to the owning node.", m.Proxied.Load())
	gauge("csserved_queue_depth", "Jobs waiting in the queue.", m.QueueDepth.Load())
	gauge("csserved_inflight_workers", "Executors currently running a check.", m.InFlight.Load())
	gauge("csserved_batches_inflight", "Batches not yet terminal.", m.BatchesInFlight.Load())

	s := m.LatencySummary()
	fmt.Fprintf(w, "# HELP csserved_check_latency_seconds Check latency over the last %d checks.\n", maxLatencySamples)
	fmt.Fprintf(w, "# TYPE csserved_check_latency_seconds summary\n")
	fmt.Fprintf(w, "csserved_check_latency_seconds{quantile=\"0.5\"} %g\n", s.Median)
	fmt.Fprintf(w, "csserved_check_latency_seconds{quantile=\"0.95\"} %g\n", s.P95)
	fmt.Fprintf(w, "csserved_check_latency_seconds{quantile=\"0.99\"} %g\n", s.P99)
	fmt.Fprintf(w, "csserved_check_latency_seconds_sum %g\n", s.Mean*float64(s.N))
	fmt.Fprintf(w, "csserved_check_latency_seconds_count %d\n", s.N)

	m.writeQueueWait(w)
	m.writePassMetrics(w)
}

// writeQueueWait renders the admit→run latency histogram. Emitted even
// before the first observation, so dashboards can key off its presence.
func (m *Metrics) writeQueueWait(w io.Writer) {
	m.queueMu.Lock()
	defer m.queueMu.Unlock()
	fmt.Fprintf(w, "# HELP csserved_job_queue_wait_seconds Time jobs spent queued between admission and executor pickup.\n")
	fmt.Fprintf(w, "# TYPE csserved_job_queue_wait_seconds histogram\n")
	for i, le := range queueWaitBuckets {
		var v int64
		if m.queueWaitBuckets != nil {
			// observe() increments every bucket at or above the value, so
			// the stored counts are already cumulative as "le" expects.
			v = m.queueWaitBuckets[i]
		}
		fmt.Fprintf(w, "csserved_job_queue_wait_seconds_bucket{le=\"%g\"} %d\n", le, v)
	}
	fmt.Fprintf(w, "csserved_job_queue_wait_seconds_bucket{le=\"+Inf\"} %d\n", m.queueWaitCount)
	fmt.Fprintf(w, "csserved_job_queue_wait_seconds_sum %g\n", m.queueWaitSum)
	fmt.Fprintf(w, "csserved_job_queue_wait_seconds_count %d\n", m.queueWaitCount)
}

// writePassMetrics renders the per-pass latency histograms and
// throughput gauges, pass names sorted for deterministic scrapes.
func (m *Metrics) writePassMetrics(w io.Writer) {
	m.passMu.Lock()
	defer m.passMu.Unlock()
	if len(m.passes) == 0 {
		return
	}
	names := make([]string, 0, len(m.passes))
	for name := range m.passes {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "# HELP csserved_pass_latency_seconds Verifier pass latency by pass name.\n")
	fmt.Fprintf(w, "# TYPE csserved_pass_latency_seconds histogram\n")
	for _, name := range names {
		h := m.passes[name]
		// observe() increments every bucket at or above the value, so the
		// stored counts are already cumulative as Prometheus "le" expects.
		for i, le := range passBuckets {
			fmt.Fprintf(w, "csserved_pass_latency_seconds_bucket{pass=%q,le=\"%g\"} %d\n", name, le, h.buckets[i])
		}
		fmt.Fprintf(w, "csserved_pass_latency_seconds_bucket{pass=%q,le=\"+Inf\"} %d\n", name, h.count)
		fmt.Fprintf(w, "csserved_pass_latency_seconds_sum{pass=%q} %g\n", name, h.sum)
		fmt.Fprintf(w, "csserved_pass_latency_seconds_count{pass=%q} %d\n", name, h.count)
	}

	fmt.Fprintf(w, "# HELP csserved_pass_states_total States processed by pass name.\n")
	fmt.Fprintf(w, "# TYPE csserved_pass_states_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "csserved_pass_states_total{pass=%q} %d\n", name, m.passes[name].states)
	}

	fmt.Fprintf(w, "# HELP csserved_pass_edges_total Enabled transitions measured by index-building passes, by pass name.\n")
	fmt.Fprintf(w, "# TYPE csserved_pass_edges_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "csserved_pass_edges_total{pass=%q} %d\n", name, m.passes[name].edges)
	}

	fmt.Fprintf(w, "# HELP csserved_pass_bytes_total Bytes materialized by index-building passes, by pass name.\n")
	fmt.Fprintf(w, "# TYPE csserved_pass_bytes_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "csserved_pass_bytes_total{pass=%q} %d\n", name, m.passes[name].bytes)
	}

	fmt.Fprintf(w, "# HELP csserved_pass_states_per_second Cumulative pass throughput (states / pass-seconds).\n")
	fmt.Fprintf(w, "# TYPE csserved_pass_states_per_second gauge\n")
	for _, name := range names {
		h := m.passes[name]
		rate := 0.0
		if h.sum > 0 {
			rate = float64(h.states) / h.sum
		}
		fmt.Fprintf(w, "csserved_pass_states_per_second{pass=%q} %g\n", name, rate)
	}
}
