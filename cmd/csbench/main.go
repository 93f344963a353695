// Command csbench regenerates the paper-claim reproduction suite: every
// experiment in EXPERIMENTS.md (E1..E10), every ablation (A1..A3), and
// every extension (X1..X4), as indexed in DESIGN.md.
//
// Usage:
//
//	csbench            # run everything
//	csbench -e E5      # run one experiment
//	csbench -list      # list experiments
//	csbench -json      # also write BENCH_<date>.json (machine-readable)
//	csbench -json -heavy                  # include the beyond-RAM probes
//	csbench -json -probes-only -probe ring -o new.json
//	csbench -guard old.json,new.json      # fail on >5% probe regressions
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"nonmask/internal/experiments"
	"nonmask/internal/obs"
	"nonmask/internal/program"
	"nonmask/internal/protocols/diffusing"
	"nonmask/internal/protocols/registry"
	"nonmask/internal/protocols/tokenring"
	"nonmask/internal/verify"
)

// benchExperiment is one experiment's wall time in the JSON report.
type benchExperiment struct {
	ID        string  `json:"id"`
	Title     string  `json:"title"`
	PaperRef  string  `json:"paper_ref"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// benchProbe is one end-to-end verify.Check measurement: the instance's
// state and enabled-edge counts, the successor index's byte size, the
// whole check's wall time, and the per-pass spans (see EXPERIMENTS.md,
// "Machine-readable benchmark record"). Probes on the scaling ladder
// additionally record the space tier ("quotient", "spill"), the full
// state count behind a quotient, and the tier's memory/disk footprints:
// quotient_bytes is the canonical-lookup bookkeeping, segment_bytes the
// resident mmap'd CSR segments, spooled_bytes the frontier-run traffic.
type benchProbe struct {
	Name          string         `json:"name"`
	Mode          string         `json:"mode,omitempty"`
	States        int64          `json:"states"`
	FullStates    int64          `json:"full_states,omitempty"`
	Edges         int64          `json:"edges"`
	Bytes         int64          `json:"bytes"`
	QuotientBytes int64          `json:"quotient_bytes,omitempty"`
	SegmentBytes  int64          `json:"segment_bytes,omitempty"`
	SpooledBytes  int64          `json:"spooled_bytes,omitempty"`
	ElapsedMS     float64        `json:"elapsed_ms"`
	Passes        []obs.PassStat `json:"passes"`
}

// benchReport is the top-level BENCH_<date>.json document.
type benchReport struct {
	Generated   string            `json:"generated"`
	GoVersion   string            `json:"go_version"`
	NumCPU      int               `json:"num_cpu"`
	Experiments []benchExperiment `json:"experiments"`
	Probes      []benchProbe      `json:"probes"`
}

func main() {
	var (
		one        = flag.String("e", "", "run a single experiment by id (e.g. E5)")
		list       = flag.Bool("list", false, "list experiments and exit")
		jsonOut    = flag.Bool("json", false, "write BENCH_<date>.json with wall times and perf probes")
		jsonPath   = flag.String("o", "", "override the -json output path")
		heavy      = flag.Bool("heavy", false, "include the beyond-RAM probes: the 43M-state rotation-quotient ring and the beyond-budget spill-tier metrics run")
		probesOnly = flag.Bool("probes-only", false, "skip the experiment suite and run only the perf probes (implies -json)")
		probePat   = flag.String("probe", "", "run only probes whose name contains this substring")
		probeBest  = flag.Int("probe-best", 1, "repetitions per probe; the fastest run is recorded")
		guard      = flag.String("guard", "", "compare two bench JSON files (\"old.json,new.json\") and fail if any probe present in both slowed beyond -tolerance; no probes are run")
		tolerance  = flag.Float64("tolerance", 0.05, "allowed relative slowdown per probe for -guard")
	)
	flag.Parse()

	if *guard != "" {
		if err := runGuard(*guard, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "csbench:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-70s [%s]\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}

	todo := experiments.All()
	if *one != "" {
		e, err := experiments.ByID(*one)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		todo = []*experiments.Experiment{e}
	}
	if *probesOnly {
		todo = nil
		*jsonOut = true
	}

	report := benchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	failed := 0
	for _, e := range todo {
		start := time.Now()
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			continue
		}
		elapsed := time.Since(start)
		fmt.Printf("%s\n", tbl)
		fmt.Printf("[%s done in %v — %s]\n\n", e.ID, elapsed.Round(time.Millisecond), e.PaperRef)
		report.Experiments = append(report.Experiments, benchExperiment{
			ID: e.ID, Title: e.Title, PaperRef: e.PaperRef,
			ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		})
	}
	if *jsonOut {
		if err := writeBenchJSON(&report, *jsonPath, *probePat, *heavy, *probeBest); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runGuard is the CI regression gate: it loads the committed baseline and
// a fresh bench JSON and fails if any probe appearing in both slowed by
// more than the tolerance. Probes only in one file (new heavy probes, a
// filtered re-run) are ignored, so the gate keeps working across probe
// additions.
func runGuard(spec string, tolerance float64) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-guard wants \"old.json,new.json\", got %q", spec)
	}
	load := func(path string) (map[string]float64, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep benchReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out := make(map[string]float64, len(rep.Probes))
		for _, p := range rep.Probes {
			out[p.Name] = p.ElapsedMS
		}
		return out, nil
	}
	old, err := load(parts[0])
	if err != nil {
		return err
	}
	cur, err := load(parts[1])
	if err != nil {
		return err
	}
	regressed := 0
	compared := 0
	for name, was := range old {
		now, ok := cur[name]
		if !ok {
			continue
		}
		compared++
		ratio := now / was
		verdict := "ok"
		if now > was*(1+tolerance) {
			verdict = "REGRESSED"
			regressed++
		}
		fmt.Printf("%-40s %9.0fms -> %9.0fms  %+.1f%%  %s\n",
			name, was, now, (ratio-1)*100, verdict)
	}
	if compared == 0 {
		return fmt.Errorf("no probe names shared between %s and %s", parts[0], parts[1])
	}
	if regressed > 0 {
		return fmt.Errorf("%d of %d probes slowed beyond %.0f%%", regressed, compared, tolerance*100)
	}
	fmt.Printf("guard ok: %d probes within %.0f%%\n", compared, tolerance*100)
	return nil
}

// writeBenchJSON runs the perf probes, fills the report, and writes it to
// path (default BENCH_<date>.json in the working directory).
func writeBenchJSON(report *benchReport, path, filter string, heavy bool, best int) error {
	probes, err := runProbes(filter, heavy, best)
	if err != nil {
		return fmt.Errorf("perf probes: %w", err)
	}
	report.Probes = probes
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d experiments, %d probes)\n",
		path, len(report.Experiments), len(report.Probes))
	return nil
}

// probeTarget is one probe's instance plus the checker configuration it
// runs under.
type probeTarget struct {
	name string
	prog *program.Program
	s, t *program.Predicate
	// options configure the space tier; a tracer is prepended per run.
	options []verify.Option
	// spill marks targets that need a private temp directory for segment
	// files, created per run and removed after.
	spill bool
}

// fastTargets are the three in-RAM instances the performance claims in
// README/DESIGN are made on: the 1M-state diffusing tree, Dijkstra's
// 5.7M-state printed ring, and a 2M-state path instance of the
// token-ring family. The CI bench guard compares exactly these.
func fastTargets() ([]probeTarget, error) {
	var targets []probeTarget

	diff, err := diffusing.New(diffusing.Binary(10))
	if err != nil {
		return nil, err
	}
	d := diff.Design
	targets = append(targets, probeTarget{name: "diffusing-binary10", prog: d.TolerantProgram(), s: d.S, t: d.T})

	ring, err := tokenring.NewRing(7, 7)
	if err != nil {
		return nil, err
	}
	targets = append(targets, probeTarget{name: "tokenring-ring-n7k7", prog: ring.P, s: ring.S})

	path, err := tokenring.NewPath(6, 8)
	if err != nil {
		return nil, err
	}
	pd := path.Design
	targets = append(targets, probeTarget{name: "tokenring-path-n6k8", prog: pd.TolerantProgram(), s: pd.S, t: pd.T})
	return targets, nil
}

// heavyTargets are the beyond-RAM ladder probes:
//
//   - tokenring-ring-n7k9-quotient: 9^8 = 43,046,721 full states whose
//     full CSR costs 1.26 GB; the value-rotation quotient checks the same
//     verdict on 9^7 representatives with ~1/9 the index memory.
//   - diffusing-binary13-spill-metrics: 4^13 = 67,108,864 states whose
//     full CSR (~3.4 GB) busts the 2 GiB in-RAM budget. It runs the
//     metrics suite — the passes that re-stream the transition graph — on
//     mmap'd CSR segments.
func heavyTargets() ([]probeTarget, error) {
	var targets []probeTarget

	ring, err := registry.Build("tokenring-ring", registry.Params{N: 7, K: 9})
	if err != nil {
		return nil, err
	}
	if ring.Symmetry == nil {
		return nil, fmt.Errorf("tokenring-ring advertises no symmetry group")
	}
	targets = append(targets, probeTarget{
		name: "tokenring-ring-n7k9-quotient", prog: ring.Program, s: ring.S, t: ring.T,
		options: []verify.Option{
			verify.WithSpaceMode(verify.SpaceQuotient),
			verify.WithSymmetry(ring.Symmetry),
		},
	})

	diff, err := diffusing.New(diffusing.Binary(13))
	if err != nil {
		return nil, err
	}
	d := diff.Design
	targets = append(targets, probeTarget{
		name: "diffusing-binary13-spill-metrics", prog: d.TolerantProgram(), s: d.S, t: d.T,
		options: []verify.Option{
			verify.WithSpaceMode(verify.SpaceSpill),
			verify.WithMetrics(),
			verify.WithMaxStates(1 << 27),
		},
		spill: true,
	})
	return targets, nil
}

// runProbes measures the checker end-to-end on each selected target,
// keeping the fastest of best repetitions.
func runProbes(filter string, heavy bool, best int) ([]benchProbe, error) {
	targets, err := fastTargets()
	if err != nil {
		return nil, err
	}
	if heavy {
		ht, err := heavyTargets()
		if err != nil {
			return nil, err
		}
		targets = append(targets, ht...)
	}
	if best < 1 {
		best = 1
	}

	var probes []benchProbe
	for _, tg := range targets {
		if filter != "" && !strings.Contains(tg.name, filter) {
			continue
		}
		var fastest *benchProbe
		for rep := 0; rep < best; rep++ {
			probe, err := runProbe(tg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", tg.name, err)
			}
			if fastest == nil || probe.ElapsedMS < fastest.ElapsedMS {
				fastest = probe
			}
		}
		fmt.Printf("probe %-40s %12d states %9.0fms\n", fastest.Name, fastest.States, fastest.ElapsedMS)
		probes = append(probes, *fastest)
	}
	return probes, nil
}

// runProbe executes one measured Check, collecting the pass spans and the
// space tier's footprint counters.
func runProbe(tg probeTarget) (*benchProbe, error) {
	collector := &obs.Collector{}
	opts := append([]verify.Option{verify.WithTracer(collector)}, tg.options...)
	if tg.spill {
		dir, err := os.MkdirTemp("", "csbench-spill-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts = append(opts, verify.WithSpillDir(dir))
	}
	start := time.Now()
	rep, err := verify.Check(context.Background(), tg.prog, tg.s, tg.t, opts...)
	if err != nil {
		return nil, err
	}
	defer rep.Close()
	probe := &benchProbe{
		Name:      tg.name,
		States:    rep.Space.Count,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
		Passes:    collector.Passes(),
	}
	if mode := rep.Space.Mode(); mode != verify.SpaceFull {
		probe.Mode = mode.String()
	}
	if rep.Space.FullCount != rep.Space.Count {
		probe.FullStates = rep.Space.FullCount
	}
	_, probe.QuotientBytes = rep.Space.QuotientStats()
	probe.SegmentBytes, probe.SpooledBytes = rep.Space.SpillStats()
	for _, p := range probe.Passes {
		if p.Pass == verify.PassSuccTable {
			probe.Edges, probe.Bytes = p.Edges, p.Bytes
		}
	}
	return probe, nil
}
