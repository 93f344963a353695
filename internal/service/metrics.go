package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
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

// passHist is one pass's latency histogram plus the totals backing its
// states/sec gauge and the index-size counters. Guarded by
// Metrics.passMu.
type passHist struct {
	latency obs.Histogram // seconds
	states  int64
	edges   int64 // enabled transitions measured by index-building passes
	bytes   int64 // bytes materialized by index-building passes
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
	latencies []float64 // seconds, bounded window; a ring once full
	oldest    int       // index of the oldest sample once the ring is full

	passMu sync.Mutex
	passes map[string]*passHist // by pass name

	queueMu   sync.Mutex
	queueWait obs.Histogram // admit→run seconds over queueWaitBuckets
}

// ObserveLatency records one check duration (in seconds).
func (m *Metrics) ObserveLatency(seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.latencies) < maxLatencySamples {
		m.latencies = append(m.latencies, seconds)
		return
	}
	m.latencies[m.oldest] = seconds
	m.oldest = (m.oldest + 1) % maxLatencySamples
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
		h = &passHist{latency: obs.NewHistogram(passBuckets)}
		m.passes[stat.Pass] = h
	}
	h.latency.Observe(stat.ElapsedMS / 1000)
	h.states += stat.States
	h.edges += stat.Edges
	h.bytes += stat.Bytes
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
	m.queueWait.Observe(seconds)
	m.queueMu.Unlock()
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

// WritePrometheus renders every counter, gauge, summary and histogram in
// Prometheus text exposition format under the csserved_ prefix.
func (m *Metrics) WritePrometheus(w io.Writer) {
	obs.WriteScalar(w, "csserved_jobs_submitted_total", "counter", "Accepted job submissions (including cache hits).", m.Submitted.Load())
	obs.WriteScalar(w, "csserved_jobs_rejected_total", "counter", "Submissions rejected by admission control.", m.Rejected.Load())
	obs.WriteScalar(w, "csserved_jobs_completed_total", "counter", "Jobs whose check ran to completion.", m.Completed.Load())
	obs.WriteScalar(w, "csserved_jobs_failed_total", "counter", "Jobs whose check returned an error.", m.Failed.Load())
	obs.WriteScalar(w, "csserved_jobs_canceled_total", "counter", "Jobs canceled before or during execution.", m.Canceled.Load())
	obs.WriteScalar(w, "csserved_cache_hits_total", "counter", "Content-addressed cache hits at submission.", m.CacheHits.Load())
	obs.WriteScalar(w, "csserved_cache_misses_total", "counter", "Content-addressed cache misses at submission.", m.CacheMisses.Load())
	obs.WriteScalar(w, "csserved_jobs_coalesced_total", "counter", "Submissions coalesced onto an identical in-flight job.", m.Coalesced.Load())
	obs.WriteScalar(w, "csserved_store_hits_total", "counter", "Cache hits served by the persistent store backend.", m.StoreHits.Load())
	obs.WriteScalar(w, "csserved_store_puts_total", "counter", "Verdicts written through to the persistent store backend.", m.StorePuts.Load())
	obs.WriteScalar(w, "csserved_store_errors_total", "counter", "Failed persistent store reads/writes.", m.StoreErrors.Load())
	obs.WriteScalar(w, "csserved_batches_submitted_total", "counter", "Accepted batch submissions.", m.BatchesSubmitted.Load())
	obs.WriteScalar(w, "csserved_batches_completed_total", "counter", "Batches that ran every member to a terminal state.", m.BatchesCompleted.Load())
	obs.WriteScalar(w, "csserved_batches_canceled_total", "counter", "Batches canceled before completion.", m.BatchesCanceled.Load())
	obs.WriteScalar(w, "csserved_batch_jobs_total", "counter", "Member jobs admitted through batches.", m.BatchJobs.Load())
	obs.WriteScalar(w, "csserved_verdict_satisfied_total", "counter", "Completed checks with a satisfied verdict.", m.Satisfied.Load())
	obs.WriteScalar(w, "csserved_verdict_violated_total", "counter", "Completed checks with a violated verdict.", m.Violated.Load())
	obs.WriteScalar(w, "csserved_saboteur_jobs_total", "counter", "Completed jobs that ran the saboteur search.", m.SaboteurJobs.Load())
	obs.WriteScalar(w, "csserved_saboteur_optimal_total", "counter", "Saboteur searches that proved k-bounded optimality.", m.SaboteurOptimal.Load())
	obs.WriteScalar(w, "csserved_saboteur_budget_exhausted_total", "counter", "Saboteur searches cut off by the expansion budget.", m.SaboteurBudgetExhausted.Load())
	obs.WriteScalar(w, "csserved_saboteur_expanded_nodes_total", "counter", "Product-graph nodes expanded by saboteur searches.", m.SaboteurExpanded.Load())
	obs.WriteScalar(w, "csserved_spill_bytes_total", "counter", "Bytes written by the checker's disk tier (CSR segments plus frontier spool runs).", m.SpilledBytes.Load())
	obs.WriteScalar(w, "csserved_auth_failures_total", "counter", "Requests rejected for a bad or missing bearer token.", m.AuthFailures.Load())
	obs.WriteScalar(w, "csserved_rate_limited_total", "counter", "Submissions bounced by a tenant's token-bucket rate limit.", m.RateLimited.Load())
	obs.WriteScalar(w, "csserved_quota_rejected_total", "counter", "Submissions bounced by a tenant's in-flight quota.", m.QuotaRejected.Load())
	obs.WriteScalar(w, "csserved_high_priority_jobs_total", "counter", "Jobs admitted to the high-priority queue.", m.HighPriority.Load())
	obs.WriteScalar(w, "csserved_forwarded_jobs_total", "counter", "Submissions forwarded to their owner node.", m.Forwarded.Load())
	obs.WriteScalar(w, "csserved_forward_fallbacks_total", "counter", "Forwards that failed in transport and ran locally instead.", m.ForwardFallbacks.Load())
	obs.WriteScalar(w, "csserved_proxied_requests_total", "counter", "Id-addressed requests reverse-proxied to the owning node.", m.Proxied.Load())
	obs.WriteScalar(w, "csserved_queue_depth", "gauge", "Jobs waiting in the queue.", m.QueueDepth.Load())
	obs.WriteScalar(w, "csserved_inflight_workers", "gauge", "Executors currently running a check.", m.InFlight.Load())
	obs.WriteScalar(w, "csserved_batches_inflight", "gauge", "Batches not yet terminal.", m.BatchesInFlight.Load())

	s := m.LatencySummary()
	const lat = "csserved_check_latency_seconds"
	obs.WriteHeader(w, lat, "summary", "Check latency over the last "+strconv.Itoa(maxLatencySamples)+" checks.")
	fmt.Fprintf(w, "%s{quantile=\"0.5\"} %g\n", lat, s.Median)
	fmt.Fprintf(w, "%s{quantile=\"0.95\"} %g\n", lat, s.P95)
	fmt.Fprintf(w, "%s{quantile=\"0.99\"} %g\n", lat, s.P99)
	fmt.Fprintf(w, "%s_sum %g\n", lat, s.Mean*float64(s.N))
	fmt.Fprintf(w, "%s_count %d\n", lat, s.N)

	// The queue-wait histogram is emitted even before the first
	// observation, so dashboards can key off its presence.
	m.queueMu.Lock()
	obs.WriteHeader(w, "csserved_job_queue_wait_seconds", "histogram", "Time jobs spent queued between admission and executor pickup.")
	m.queueWait.Write(w, "csserved_job_queue_wait_seconds", "")
	m.queueMu.Unlock()
	m.writePassMetrics(w)
}

// writePassMetrics renders the per-pass latency histograms, totals and
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

	obs.WriteHeader(w, "csserved_pass_latency_seconds", "histogram", "Verifier pass latency by pass name.")
	for _, name := range names {
		m.passes[name].latency.Write(w, "csserved_pass_latency_seconds", fmt.Sprintf("pass=%q", name))
	}
	for _, f := range []struct {
		name, typ, help string
		value           func(*passHist) any
	}{
		{"csserved_pass_states_total", "counter", "States processed by pass name.",
			func(h *passHist) any { return h.states }},
		{"csserved_pass_edges_total", "counter", "Enabled transitions measured by index-building passes, by pass name.",
			func(h *passHist) any { return h.edges }},
		{"csserved_pass_bytes_total", "counter", "Bytes materialized by index-building passes, by pass name.",
			func(h *passHist) any { return h.bytes }},
		{"csserved_pass_states_per_second", "gauge", "Cumulative pass throughput (states / pass-seconds).",
			func(h *passHist) any {
				if h.latency.Sum <= 0 {
					return 0.0
				}
				return float64(h.states) / h.latency.Sum
			}},
	} {
		obs.WriteHeader(w, f.name, f.typ, f.help)
		for _, name := range names {
			fmt.Fprintf(w, "%s{pass=%q} %v\n", f.name, name, f.value(m.passes[name]))
		}
	}
}
