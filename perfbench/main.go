// Command perfbench is the repository's benchmark: it starts the real
// service stack in-process (internal/service behind HTTP, on one node or
// as a 3-node internal/cluster replica set, each node with an
// internal/store), drives it through internal/service/client with
// seed-generated workloads, checks every verdict against an independent
// oracle, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload verify-cold --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload service-mix --seed 1 --seconds 25 --repeat 10
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads lists the benchmark's workloads and why each exists.
var workloads = map[string]string{
	"verify-cold":   "closed loop, one client, every job a cache miss: the checker (verify, program) does >95% of the work",
	"service-mix":   "open loop, Zipf over a small-instance catalog with misses throughout: admission, compile, cache, store, encode and the event bus do the work",
	"cluster-3node": "open loop on a 3-node replica set: forwarding, proxied reads, batch fan-out and store replication beside the single-node path",
}

// gated lists the end-to-end metrics of the final JSON line, in order.
// Each is defined on every workload (see README.md).
var gated = []string{"setup_s", "latency_p50_ms", "retained_heap_mb"}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root (stores and span files go under <root>/.bench_build)")
		workload = flag.String("workload", "", "verify-cold | service-mix | cluster-3node")
		seed     = flag.Int64("seed", 1, "workload seed: fixes every generated input")
		seconds  = flag.Float64("seconds", 20, "measured time per run")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end")
		repeat   = flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, …) and print each metric's median, quartiles and spread")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want verify-cold | service-mix | cluster-3node)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := runRepeat(*root, *workload, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	base := filepath.Join(*root, ".bench_build", "perfbench")
	dir := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	// The checker's spill tier writes to the OS temp directory when no
	// spill directory is configured (the service default, kept so auto
	// mode behaves as deployed); point that into the run directory.
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Setenv("TMPDIR", tmp)
	e := &env{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Dir: dir,
		SpanFile: filepath.Join(base, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed)),
	}
	out, err := run(e)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// final is the last line of output.
type final struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one run and renders its report and final line.
func run(e *env) (string, error) {
	tl := &tally{}
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d\n",
		e.Workload, e.Seed, e.Seconds, e.Trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "# why: %s\n", workloads[e.Workload])
	var rep []reading
	var jobLines []string
	var metrics map[string]metricJSON
	var err error
	if e.Trace {
		rep, err = tracedRun(e, tl, &b)
		metrics = make(map[string]metricJSON)
		for _, r := range rep {
			metrics[r.Name] = metricJSON{r.Value, r.Unit}
		}
	} else {
		var setupS []float64
		var ph *phase
		ph, err = timedPhase(e, time.Duration(e.Seconds*float64(time.Second)), nil, nil, tl, &setupS, "run")
		if err == nil {
			// verify-cold timed its reference rounds between the jobs;
			// the open-loop workloads time theirs after the phase, so the
			// rounds touch none of the measured figures.
			ref := ph.refMS
			if ref == nil {
				ref = machineReference(9)
			}
			jobLines = ph.jobs
			rep = endToEnd(e.Workload, ph, setupS, tl, ref)
			metrics = make(map[string]metricJSON)
			for _, name := range gated {
				r := find(rep, name)
				metrics[name] = metricJSON{r.Value, r.Unit}
			}
		}
	}
	if err != nil {
		return "", err
	}
	for _, j := range jobLines {
		fmt.Fprintf(&b, "# job %s\n", j)
	}
	absent := 0
	for _, r := range rep {
		if r.Absent != "" {
			fmt.Fprintf(&b, "metric %-34s absent (%s)\n", r.Name, r.Absent)
			absent++
			continue
		}
		fmt.Fprintf(&b, "metric %-34s %14.6g %-9s n=%d\n", r.Name, r.Value, r.Unit, r.N)
	}
	if absent > 0 && e.Trace {
		fmt.Fprintf(&b, "# the result line writes the %d absent metrics as 0; that 0 is not a reading\n", absent)
	}
	for _, m := range tl.msgs {
		fmt.Fprintf(&b, "# failure: %s\n", m)
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		fmt.Fprintf(&b, "# rusage: user %.2fs sys %.2fs minflt %d majflt %d nvcsw %d nivcsw %d\n",
			time.Duration(ru.Utime.Nano()).Seconds(), time.Duration(ru.Stime.Nano()).Seconds(),
			ru.Minflt, ru.Majflt, ru.Nvcsw, ru.Nivcsw)
	}
	raw, _ := json.Marshal(rep)
	fmt.Fprintf(&b, "REPORT %s\n", raw)
	f := final{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: metrics}
	line, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	b.Write(line)
	b.WriteByte('\n')
	return b.String(), nil
}

func find(rs []reading, name string) reading {
	for _, r := range rs {
		if r.Name == name {
			return r
		}
	}
	return reading{Name: name, Absent: "not measured"}
}

// timedPhase runs the workload's timed phase once, traced when tr is set.
func timedPhase(e *env, d time.Duration, tr *tracer, pr *probes, tl *tally, setupS *[]float64, tag string) (*phase, error) {
	if e.Workload == "verify-cold" {
		return runVerifyCold(e, genVerifyCold(e.Seed), d, tr, pr, tl, setupS, tag)
	}
	sh := mixShapes[e.Workload]
	return runMix(e, sh, genMix(e.Seed, sh, d), tr, pr, tl, setupS, tag)
}

// endToEnd computes the workload's end-to-end readings.
func endToEnd(w string, ph *phase, setupS []float64, tl *tally, ref []float64) []reading {
	// On verify-cold the gated latency is job_p50_s in milliseconds (the
	// result line needs one latency name on every workload), and it and
	// setup_s are scaled to the reference machine's time (see coldScaled).
	setup, lat := median(setupS), median(ph.latMS)
	if w == "verify-cold" {
		setup, lat = coldScaled(setup, ref), coldScaled(lat, ref)
	}
	rs := []reading{
		{Name: "setup_s", Value: setup, Unit: "s", N: len(setupS)},
		{Name: "error_rate", Value: tl.errorRate(), Unit: "fraction", N: tl.attempted},
		{Name: "latency_p50_ms", Value: lat, Unit: "ms", N: len(ph.latMS)},
	}
	switch w {
	case "verify-cold":
		rs = append(rs,
			reading{Name: "setup_raw_s", Value: median(setupS), Unit: "s", N: len(setupS)},
			reading{Name: "states_per_s", Value: float64(ph.states) / ph.wall.Seconds(), Unit: "states/s", N: len(ph.latMS)},
			reading{Name: "job_p50_s", Value: median(ph.latMS) / 1e3, Unit: "s", N: len(ph.latMS)},
			reading{Name: "peak_heap_mb", Value: ph.peakHeap, Unit: "MiB", N: 1},
		)
	default:
		p99 := reading{Name: "latency_p99_ms", Unit: "ms", N: len(ph.latMS)}
		if len(ph.latMS) >= 1000 && percentileAllowed(99, len(ph.latMS)) {
			p99.Value = percentile(ph.latMS, 99)
		} else {
			p99.Absent = fmt.Sprintf("%d samples; p99 needs at least 1000", len(ph.latMS))
		}
		rs = append(rs, p99)
		if w == "cluster-3node" {
			rs = append(rs, reading{Name: "batch_p50_ms", Value: median(ph.batchMS), Unit: "ms", N: len(ph.batchMS)})
		}
	}
	rs = append(rs,
		reading{Name: "retained_heap_mb", Value: ph.retainedMB, Unit: "MiB", N: 1},
		reading{Name: "machine_ref_ms", Value: median(ref), Unit: "ms", N: len(ref)},
	)
	if w == "verify-cold" {
		rs = append(rs, reading{Name: "gen_lag_p99_ms", Unit: "ms", Absent: "closed loop: every request is sent when the previous one ends"})
	} else {
		rs = append(rs, reading{Name: "gen_lag_p99_ms", Value: percentile(ph.lagMS, 99), Unit: "ms", N: len(ph.lagMS)})
	}
	return rs
}

// coldScaled converts a verify-cold time into the reference machine's
// time: v times refNominalMS over the median of the reference rounds run
// between the jobs. The machine's speed drifts by up to a half within
// minutes; the reference rounds drift with the checks, and the quotient
// does not.
func coldScaled(v float64, refMS []float64) float64 {
	return v * refNominalMS / median(refMS)
}

// tracedRun runs the workload twice on fresh stacks, untraced and then
// traced, over half the run time each; the gap between the two is the
// tracing overhead. The traced half feeds the per-layer metrics, the
// span file and the layer table; direct layer probes and (verify-cold)
// the worker sweep run after it.
func tracedRun(e *env, tl *tally, b *strings.Builder) ([]reading, error) {
	half := time.Duration(e.Seconds / 2 * float64(time.Second))
	var setupU, setupT []float64
	phU, err := timedPhase(e, half, nil, nil, tl, &setupU, "untraced")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	pr := &probes{}
	phT, err := timedPhase(e, half, tr, pr, tl, &setupT, "traced")
	if err != nil {
		return nil, err
	}
	if err := probeCompile(pr, phT.hitSpecs, tr); err != nil {
		return nil, err
	}
	if len(phT.storeDirs) > 0 {
		if err := probeStore(pr, phT.storeDirs[0], e.Dir, tr); err != nil {
			return nil, fmt.Errorf("store probe: %w", err)
		}
	}
	var sweep map[int]float64
	if e.Workload == "verify-cold" {
		if sweep, err = workerSweep(e, genVerifyCold(e.Seed), tl); err != nil {
			return nil, err
		}
	}
	spans := resolve(tr.snapshot())
	if err := writeSpans(e.SpanFile, spans); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	fmt.Fprintf(b, "# spans: %d written to %s\n", len(spans), e.SpanFile)
	fmt.Fprintln(b, "# per-layer time (traced half + probes):")
	var tb strings.Builder
	printLayerTable(&tb, selfTimes(spans))
	for _, line := range strings.Split(strings.TrimRight(tb.String(), "\n"), "\n") {
		fmt.Fprintf(b, "#%s\n", line)
	}
	pU, pT := median(phU.latMS), median(phT.latMS)
	fmt.Fprintf(b, "# tracing overhead: latency_p50_ms untraced %.4g (n=%d), traced %.4g (n=%d)\n", pU, len(phU.latMS), pT, len(phT.latMS))
	if sweep != nil {
		ws := make([]int, 0, len(sweep))
		for w := range sweep {
			ws = append(ws, w)
		}
		sort.Ints(ws)
		for _, w := range ws {
			fmt.Fprintf(b, "# worker sweep: workers=%d check time %.1f ms\n", w, sweep[w])
		}
	}
	phT.queueMS, phT.runMS = jobTimes(spans)
	rs := layerReadings(e.Workload, phT, pr, sweep)
	rs = append(rs, reading{Name: "trace.overhead", Value: pT/pU - 1, Unit: "fraction", N: len(phT.latMS)})
	return rs, nil
}

// passNames are the verifier passes with their own per-layer metric.
var passNames = []string{"enumerate", "succ_table", "pred_table", "closure", "converge_unfair", "converge_fair",
	"fault_span", "distance_profile", "expected_steps", "constraint_cost", "canonicalize", "spill"}

// layerReadings assembles the per-layer metrics from the traced phase.
func layerReadings(w string, ph *phase, pr *probes, sweep map[int]float64) []reading {
	var rs []reading
	add := func(name string, v float64, unit string, n int) {
		rs = append(rs, reading{Name: name, Value: v, Unit: unit, N: n})
	}
	absent := func(name, unit, why string) {
		rs = append(rs, reading{Name: name, Unit: unit, Absent: why})
	}
	pctl := func(name string, vals []float64, p float64, unit string) {
		switch {
		case len(vals) == 0:
			absent(name, unit, "no samples on this workload")
		case p > 50 && (len(vals) < 1000 || !percentileAllowed(p, len(vals))):
			absent(name, unit, fmt.Sprintf("%d samples; p%g needs at least 1000", len(vals), p))
		default:
			add(name, percentile(vals, p), unit, len(vals))
		}
	}
	// verify: the checks this phase ran (cache hits excluded).
	passMS := make(map[string]float64)
	var checkMS float64
	var edges, index, spilled int64
	for _, r := range ph.results {
		checkMS += r.ElapsedMS
		for _, p := range r.Passes {
			passMS[p.Pass] += p.ElapsedMS
			switch p.Pass {
			case "succ_table":
				edges += p.Edges
				index += p.Bytes
			case "pred_table":
				index += p.Bytes
			case "spill":
				spilled += p.SpilledBytes
			}
		}
	}
	n := len(ph.results)
	for _, p := range passNames {
		add("verify."+p+"_ms", passMS[p], "ms", n)
	}
	if checkMS > 0 {
		add("verify.succ_table_share", passMS["succ_table"]/checkMS, "fraction", n)
	} else {
		absent("verify.succ_table_share", "fraction", "no checks ran")
	}
	add("verify.edges", float64(edges), "count", n)
	add("verify.index_bytes", float64(index), "bytes", n)
	add("verify.spilled_bytes", float64(spilled), "bytes", n)
	if sweep != nil && sweep[runtime.NumCPU()] > 0 {
		add("verify.workers_speedup", sweep[1]/sweep[runtime.NumCPU()], "x", len(sweep))
	} else {
		absent("verify.workers_speedup", "x", "the worker sweep runs on verify-cold only")
	}
	pctl("gcl.load_us_p50", pr.gclLoadUS, 50, "us")
	pctl("registry.build_us_p50", pr.buildUS, 50, "us")
	pctl("service.submit_hit_us_p50", pr.submitHitUS, 50, "us")
	pctl("service.encode_us_p50", pr.encodeUS, 50, "us")
	pctl("service.handler_us_p50", ph.handlerUS, 50, "us")
	pctl("service.queue_wait_ms_p50", ph.queueMS, 50, "ms")
	pctl("service.queue_wait_ms_p99", ph.queueMS, 99, "ms")
	pctl("service.run_ms_p50", ph.runMS, 50, "ms")
	c := ph.counters
	ratio := func(name string, num int64) {
		if c.submitted == 0 {
			absent(name, "fraction", "no submissions")
			return
		}
		add(name, float64(num)/float64(c.submitted), "fraction", int(c.submitted))
	}
	ratio("service.hit_ratio", c.hits)
	ratio("service.store_hit_ratio", c.storeHits)
	ratio("service.coalesce_ratio", c.coalesced)
	ratio("service.miss_ratio", c.misses)
	add("service.rejected", float64(c.rejected), "count", int(c.submitted))
	add("obs.events_seen", float64(ph.events), "count", 1)
	add("obs.events_dropped", float64(ph.dropped), "count", 1)
	pctl("store.put_us_p50", pr.putUS, 50, "us")
	pctl("store.get_us_p50", pr.getUS, 50, "us")
	add("store.open_ms", pr.openMS, "ms", 1)
	pctl("store.since_ms_p50", pr.sinceMS, 50, "ms")
	pctl("store.apply_us_p50", pr.applyUS, 50, "us")
	add("store.bytes_per_key", pr.bytesPerKey, "bytes", 1)
	add("store.appends", float64(c.appends), "count", 1)
	add("store.syncs", float64(c.syncs), "count", 1)
	if w != "cluster-3node" {
		why := "single node: no cluster layer"
		for _, m := range []struct{ name, unit string }{
			{"cluster.forward_ms_p50", "ms"}, {"cluster.proxy_ms_p50", "ms"}, {"cluster.forward_ratio", "fraction"},
			{"cluster.fallbacks", "count"}, {"cluster.replicated_records", "count"}, {"cluster.replicate_rounds", "count"},
			{"cluster.replication_lag_ms_p50", "ms"},
		} {
			absent(m.name, m.unit, why)
		}
		return rs
	}
	pctl("cluster.forward_ms_p50", ph.forwardMS, 50, "ms")
	pctl("cluster.proxy_ms_p50", ph.proxyMS, 50, "ms")
	add("cluster.forward_ratio", ph.forward, "fraction", int(c.submitted))
	add("cluster.fallbacks", float64(c.fallbacks), "count", 1)
	add("cluster.replicated_records", float64(ph.replicated), "count", 1)
	add("cluster.replicate_rounds", float64(ph.rounds), "count", 1)
	pctl("cluster.replication_lag_ms_p50", ph.replLagMS, 50, "ms")
	return rs
}

// ---------------------------------------------------------------------
// repeat mode

// reportBounds are the bounds of the metrics that are reported per
// workload but are not in the gated line (BENCHMARK.json holds the gated
// ones).
var reportBounds = map[string]float64{
	"states_per_s": 0.25, "job_p50_s": 0.25, "peak_heap_mb": 0.15,
	"latency_p99_ms": 0.25, "batch_p50_ms": 0.25,
}

// runRepeat runs the workload n times in child processes with seeds
// seed..seed+n-1 and prints, per metric, the median, the quartiles and
// the spread (Q3-Q1)/median, flagging any end-to-end metric whose spread
// exceeds its bound.
func runRepeat(root, workload string, seed int64, seconds float64, trace, n int) error {
	bounds := make(map[string]float64)
	for k, v := range reportBounds {
		bounds[k] = v
	}
	if raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err == nil {
		var bj struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(raw, &bj); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bj.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	var order []string
	failed := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(os.Args[0], "-root", root, "-workload", workload, "-seed", fmt.Sprint(s),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		var rep []reading
		var fin final
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		var last string
		for sc.Scan() {
			line := sc.Text()
			if r, ok := strings.CutPrefix(line, "REPORT "); ok {
				if err := json.Unmarshal([]byte(r), &rep); err != nil {
					return fmt.Errorf("seed %d report: %w", s, err)
				}
			}
			last = line
		}
		if err := json.Unmarshal([]byte(last), &fin); err != nil {
			return fmt.Errorf("seed %d final line: %w", s, err)
		}
		failed += fin.Failed
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d", s, fin.Correct, fin.Attempted, fin.Failed)
		for _, name := range gated {
			if m, ok := fin.Metrics[name]; ok {
				fmt.Printf(" %s=%.6g", name, m.Value)
			}
		}
		if r := find(rep, "machine_ref_ms"); r.Absent == "" {
			fmt.Printf(" machine_ref_ms=%.4g", r.Value)
		}
		fmt.Println()
		for _, r := range rep {
			if r.Absent != "" {
				continue
			}
			if _, ok := values[r.Name]; !ok {
				order = append(order, r.Name)
			}
			values[r.Name] = append(values[r.Name], r.Value)
			units[r.Name] = r.Unit
		}
	}
	fmt.Printf("%-34s %-9s %4s %14s %14s %14s %8s %6s\n", "metric", "unit", "n", "q1", "median", "q3", "spread", "bound")
	flagged := 0
	for _, name := range order {
		vals := values[name]
		q1, q2, q3 := quartiles(vals)
		sp := spread(vals)
		bound, hasBound := bounds[name]
		mark := ""
		bs := "-"
		if hasBound {
			bs = fmt.Sprintf("%.3g", bound)
			switch {
			case sp > bound:
				mark = "  SPREAD>BOUND"
				flagged++
			case sp > bound/3:
				mark = "  spread>bound/3"
			}
		}
		if math.IsInf(sp, 0) || math.IsNaN(sp) {
			sp = 0
		}
		fmt.Printf("%-34s %-9s %4d %14.6g %14.6g %14.6g %8.4f %6s%s\n", name, units[name], len(vals), q1, q2, q3, sp, bs, mark)
	}
	fmt.Printf("runs=%d failed_ops=%d metrics_over_bound=%d\n", n, failed, flagged)
	return nil
}
