// Command csverify validates and model-checks a built-in protocol
// instance: it reports which of the paper's theorems (1, 2, 3) applies to
// the design, the exact closure/convergence verdicts under arbitrary and
// weakly fair daemons, and the masking/nonmasking classification.
//
// Instances come from the shared catalog in internal/protocols/registry —
// the same catalog csserved serves over HTTP — so `csverify -protocol X`
// and `POST /v1/jobs {"protocol":"X"}` check the identical program.
//
// Usage:
//
//	csverify -protocol diffusing -n 7
//	csverify -protocol tokenring-path -n 3 -k 4
//	csverify -protocol tokenring-ring -n 4 -k 6
//	csverify -protocol spanningtree -n 4 -graph complete
//	csverify -protocol xyz -variant out-tree
//	csverify -protocol composed -n 4 -graph ring
//	csverify -protocol threestate -n 5 -json
//	csverify -watch http://127.0.0.1:8080 j-17
//	csverify -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"nonmask/internal/core"
	"nonmask/internal/obs"
	"nonmask/internal/protocols/registry"
	"nonmask/internal/saboteur"
	"nonmask/internal/service"
	"nonmask/internal/service/client"
	"nonmask/internal/store"
	"nonmask/internal/verify"
)

func main() {
	var (
		protocol  = flag.String("protocol", "diffusing", "protocol name (see -list): "+strings.Join(registry.Names(), " | "))
		n         = flag.Int("n", 5, "instance size (nodes; ring/path: highest index)")
		k         = flag.Int("k", 0, "counter domain size for token rings (default n+2)")
		tree      = flag.String("tree", "binary", "tree shape for tree protocols: chain | star | binary | random")
		graphStr  = flag.String("graph", "line", "graph for graph protocols: line | ring | complete | grid")
		variant   = flag.String("variant", "out-tree", "xyz variant: interfering | out-tree | ordered")
		seed      = flag.Int64("seed", 1, "seed for random topologies")
		strategy  = flag.String("strategy", "projected", "preservation strategy: projected | exhaustive")
		workers   = flag.Int("workers", 0, "goroutines sharding the checker's passes (0 = all CPUs, 1 = sequential)")
		maxStates = flag.Int64("max-states", 0, fmt.Sprintf("state-space cap (0 = default %d)", verify.DefaultMaxStates))
		spaceMode = flag.String("space-mode", "auto", "state-space tier: auto (escalate full -> quotient -> spill as the instance outgrows RAM) | full | quotient | spill")
		spillDir  = flag.String("spill-dir", "", "directory for the disk tier's CSR segments and frontier runs, whether -space-mode spill forces it or auto escalates to it (empty = OS temp dir)")
		jsonOut   = flag.Bool("json", false, "emit the machine-readable service.Result JSON instead of prose")
		measure   = flag.Bool("measure", false, "additionally run the quantitative tolerance metrics (distance profile, worst/expected stabilization time, per-constraint recovery costs)")
		storeDir  = flag.String("store", "", "persistent verdict store directory shared with csserved; hits skip the check")
		sabotage  = flag.Int("sabotage", 0, "fault budget k: additionally search for the worst k-fault schedule (0 = off)")
		objective = flag.String("objective", "recovery", "saboteur objective: recovery | escape")
		budget    = flag.Int64("budget", 0, fmt.Sprintf("saboteur node-expansion budget (0 = default %d)", saboteur.DefaultBudget))
		witOut    = flag.String("witness-out", "", "write the saboteur witness JSON to this file (replay with cssim -replay)")
		trace     = flag.Bool("trace", false, "print the per-pass span table (states, frontier, wall time) on stderr")
		progress  = flag.Bool("progress", false, "stream live per-pass progress lines on stderr")
		watch     = flag.String("watch", "", "tail a remote csserved job's event stream: -watch URL JOB-ID")
		list      = flag.Bool("list", false, "list the protocol catalog and exit")
	)
	flag.Parse()

	if *watch != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: csverify -watch URL JOB-ID")
			os.Exit(2)
		}
		if err := runWatch(*watch, flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "csverify:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range registry.Entries() {
			fmt.Printf("%-16s %s (defaults: %s)\n", e.Name, e.Description, e.Normalize(registry.Params{}))
		}
		return
	}

	// The flags spell a job spec, compiled by the service's own compiler:
	// the CLI validates options, applies the quotient soundness policy and
	// content-addresses exactly as csserved does.
	spec := service.JobSpec{
		Protocol: *protocol,
		Params:   registry.Params{N: *n, K: *k, Tree: *tree, Graph: *graphStr, Variant: *variant, Seed: *seed},
		Options: service.JobOptions{Workers: *workers, MaxStates: *maxStates,
			Strategy: *strategy, SpaceMode: *spaceMode},
	}
	if *measure {
		spec.Options.Analyses = []string{service.AnalysisMetrics}
	}
	if *sabotage != 0 {
		spec.Options.Saboteur = &service.SaboteurOptions{K: *sabotage, Objective: *objective, Budget: *budget}
	}
	// -trace collects every pass span the check emits (including stair and
	// fair-convergence follow-ups, which inherit the options' tracer) and
	// prints the table after the verdict; -progress samples the hot loops'
	// shared counter twice a second. Both write stderr, so -json output
	// stays parseable.
	var (
		collector *obs.Collector
		tracer    obs.Tracer
		prog      *obs.Progress
	)
	if *trace {
		collector = &obs.Collector{}
		tracer = collector
	}
	stopProgress := func() {}
	if *progress {
		prog = &obs.Progress{}
		stopProgress = prog.Watch(500*time.Millisecond, func(s obs.Snapshot) {
			printSnapshot("csverify", s)
		})
	}

	err := check(spec, *spillDir, *storeDir, *witOut, *jsonOut, tracer, prog)
	stopProgress()
	if collector != nil {
		fmt.Fprint(os.Stderr, obs.FormatTable(collector.Passes()))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "csverify:", err)
		os.Exit(1)
	}
}

// runWatch tails a remote job's SSE stream: the same per-pass lines
// -progress prints locally, the same span table -trace prints, but fed by
// a csserved across the network. The stream replays retained history
// first, so attaching after completion still renders the full run.
func runWatch(baseURL, jobID string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	c := client.New(baseURL, nil)
	state, detail, stats, err := c.TailJob(ctx, jobID, 0, os.Stderr)
	if err != nil {
		return err
	}
	if len(stats) > 0 {
		fmt.Fprint(os.Stderr, obs.FormatTable(stats))
	}
	fmt.Printf("job %s: %s", jobID, state)
	if detail != "" {
		fmt.Printf(" (%s)", detail)
	}
	fmt.Println()
	if state != service.StateDone {
		return fmt.Errorf("job finished %s", state)
	}
	return nil
}

// printSnapshot renders one -progress ticker line.
func printSnapshot(prefix string, s obs.Snapshot) {
	if s.Pass == "" {
		return
	}
	if s.Total > 0 {
		fmt.Fprintf(os.Stderr, "%s: %-16s %d/%d states in %v (%s/s)\n",
			prefix, s.Pass, s.Done, s.Total, s.Elapsed.Round(time.Millisecond), rateString(s.Rate()))
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %-16s %d states in %v (%s/s)\n",
		prefix, s.Pass, s.Done, s.Elapsed.Round(time.Millisecond), rateString(s.Rate()))
}

// byteString compacts a byte count for the disk-tier summary line.
func byteString(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// rateString compacts a states/second figure for the ticker line.
func rateString(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	default:
		return fmt.Sprintf("%.0f", r)
	}
}

// check compiles the spec and runs it the way the output mode needs: the
// store-backed verdict, the wire JSON, the saboteur report, or the prose
// report (with theorem validation for layered designs).
func check(spec service.JobSpec, spillDir, storeDir, witOut string, jsonOut bool,
	tracer obs.Tracer, prog *obs.Progress) error {
	if spec.Options.Saboteur != nil && storeDir != "" {
		return fmt.Errorf("-sabotage does not combine with -store (witnesses are not store records)")
	}
	c, err := service.Compile(spec, service.Config{SpillDir: spillDir})
	if err != nil {
		return err
	}
	if storeDir != "" {
		return runStored(c, jsonOut, storeDir, tracer, prog)
	}
	if !jsonOut && c.Design() != nil && spec.Options.Saboteur == nil {
		return verifyDesign(c, tracer, prog)
	}
	rep, sabRes, err := c.Run(context.Background(), tracer, prog, nil)
	if rep != nil {
		defer rep.Close()
	}
	if err != nil {
		return err
	}
	if sabRes != nil {
		if err := writeWitness(sabRes, witOut); err != nil {
			return err
		}
	}
	switch {
	case jsonOut:
		return encodeJSON(c.Result(rep, sabRes))
	case sabRes != nil:
		printSabotage(c, rep, sabRes)
		return nil
	default:
		return verifyPlain(c, rep)
	}
}

// writeWitness writes the saboteur's witness (when the worst schedule
// does damage) for cssim -replay; Run has stamped its catalog identity, so
// the file alone rebuilds the instance.
func writeWitness(sabRes *saboteur.Result, witOut string) error {
	if witOut == "" {
		return nil
	}
	w := sabRes.Witness
	if w == nil {
		fmt.Fprintf(os.Stderr, "csverify: no witness to write (no %d-fault schedule does damage)\n", sabRes.K)
		return nil
	}
	enc, err := w.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(witOut, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "csverify: witness (%d fault + %d recovery steps) written to %s\n",
		len(w.Steps), len(w.Recovery), witOut)
	return nil
}

// printSabotage reports the worst k-fault schedule the search proved, and
// the node budget it ran under.
func printSabotage(c *service.Compiled, rep *verify.Report, sabRes *saboteur.Result) {
	fmt.Printf("program %s: %d states\n", c.Name(), rep.Space.Count)
	fmt.Printf("convergence: %s\n", rep.Unfair.Summary())
	status := "optimal within k"
	if !sabRes.Optimal {
		status = "budget exhausted, incumbent only"
	}
	switch sabRes.Objective {
	case saboteur.ObjectiveEscape:
		if sabRes.Escaped {
			fmt.Printf("saboteur: escape with %d faults (%s; expanded %d of %d budgeted nodes)\n",
				sabRes.Cost, status, sabRes.Expanded, sabRes.Budget)
		} else {
			fmt.Printf("saboteur: T confines every %d-fault schedule (%s; expanded %d of %d budgeted nodes)\n",
				sabRes.K, status, sabRes.Expanded, sabRes.Budget)
		}
	default:
		fmt.Printf("saboteur: worst %d-fault schedule forces %d recovery steps (%s; expanded %d of %d budgeted nodes, %d rounds, Δmax %d)\n",
			sabRes.K, sabRes.Cost, status, sabRes.Expanded, sabRes.Budget, sabRes.Rounds, sabRes.DeltaMax)
	}
	fmt.Printf("search time: %v\n", sabRes.Elapsed)
}

// runStored checks a compiled job through the shared persistent verdict
// store under the job's own content-address, so a verdict computed by
// csverify or csserved answers the other without re-verification. A store
// hit skips the check entirely; a miss runs it and appends the verdict.
func runStored(c *service.Compiled, jsonOut bool, dir string, tracer obs.Tracer, prog *obs.Progress) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	defer st.Close()

	key := c.Key()
	if raw, ok := st.Get(key); ok {
		var res service.Result
		if err := json.Unmarshal(raw, &res); err == nil {
			res.Cached = true
			fmt.Fprintf(os.Stderr, "csverify: verdict served from store %s (key %.12s…)\n", dir, key)
			return emitResult(&res, jsonOut)
		}
		// An undecodable record is treated as a miss; the fresh verdict
		// overwrites it below.
	}

	rep, _, err := c.Run(context.Background(), tracer, prog, nil)
	if rep != nil {
		defer rep.Close()
	}
	if err != nil {
		return err
	}
	res := c.Result(rep, nil)
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := st.Put(key, raw); err != nil {
		return fmt.Errorf("store verdict: %w", err)
	}
	return emitResult(res, jsonOut)
}

// encodeJSON writes the shared service.Result wire encoding, so scripts
// consume one format from csverify and csserved.
func encodeJSON(res *service.Result) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// emitResult renders a stored-or-fresh Result: the shared JSON encoding
// with -json, a compact verdict summary otherwise.
func emitResult(res *service.Result, jsonOut bool) error {
	if jsonOut {
		return encodeJSON(res)
	}
	fmt.Printf("program %s: %d states (|S|=%d, |T|=%d), classification: %s\n",
		res.Program, res.States, res.StatesS, res.StatesT, res.Classification)
	if res.ClosureOK {
		fmt.Println("closure: S and T closed")
	} else {
		fmt.Printf("closure: VIOLATED — %s\n", res.Closure)
	}
	if res.Unfair != nil {
		fmt.Printf("convergence: %s\n", res.Unfair.Summary)
	}
	if res.Fair != nil {
		fmt.Printf("fair convergence: %s\n", res.Fair.Summary)
	}
	if m := res.Metrics; m != nil {
		fmt.Printf("distance profile: max %d, mean %.2f (unreachable %d)\n",
			m.MaxDistance, m.MeanDistance, m.UnreachableStates)
		if m.WorstMeasured {
			fmt.Printf("worst-case stabilization: %d steps (mean %.2f)\n", m.WorstSteps, m.MeanWorstSteps)
		}
		if m.ExpectedMeasured {
			fmt.Printf("expected stabilization: %.2f steps (mean %.2f)\n", m.ExpectedSteps, m.MeanExpectedSteps)
		}
		for _, c := range m.Constraints {
			fmt.Printf("constraint %q: measured=%v worst=%d stable=%d\n",
				c.Name, c.Measured, c.WorstSteps, c.StableStates)
		}
	}
	fmt.Printf("verdict: %s (original check: %.1fms, workers=%d, cached=%v)\n",
		res.Verdict, res.ElapsedMS, res.Workers, res.Cached)
	return nil
}

// verifyDesign validates a layered design against the paper's theorems,
// then model-checks it. The validation and the per-constraint report
// evaluate node-indexed predicates the symmetry group permutes, so this
// path checks the concrete space; -json runs the quotient check.
func verifyDesign(c *service.Compiled, tracer obs.Tracer, prog *obs.Progress) error {
	if c.Options().SpaceMode == verify.SpaceQuotient {
		return fmt.Errorf("the design-validation output evaluates per-constraint predicates, which are not symmetry-invariant; use -json for the quotient check")
	}
	c = c.WithoutSymmetry()
	d := c.Design()
	fmt.Printf("design %s: %d variables, %d closure actions, %d constraints\n",
		d.Name, d.Schema.Len(), len(d.Closure), d.Set.Len())
	fmt.Println()

	fmt.Println("=== theorem validation (sufficient conditions) ===")
	opts := c.Options()
	opts.Tracer, opts.Progress = tracer, prog
	applicable, all, err := d.Validate(opts.Strategy, opts)
	if err != nil {
		return err
	}
	if applicable != nil {
		fmt.Printf("%s\n", applicable)
		if applicable.Graph != nil {
			fmt.Println("constraint graph:")
			fmt.Print(applicable.Graph.String(d.Schema))
		}
	} else {
		fmt.Println("no sufficient condition applies; reports:")
		for _, r := range all {
			fmt.Printf("%s\n", r)
		}
	}

	fmt.Println()
	fmt.Println("=== exact model checking ===")
	count, ok := d.Schema.StateCount()
	if !ok || count > opts.MaxStates {
		fmt.Printf("state space too large to enumerate (%d states); use cssim instead\n", count)
		return nil
	}
	rep, _, err := c.Run(context.Background(), tracer, prog, nil)
	if rep != nil {
		defer rep.Close()
	}
	if err != nil {
		return err
	}
	fmt.Printf("state space: %d states, classification: %v\n", count, rep.Classification)
	if rep.Closure != nil {
		fmt.Printf("closure: VIOLATED — %v\n", rep.Closure)
	} else {
		fmt.Println("closure: S and T closed in p ∪ q")
	}
	fmt.Printf("convergence: %s\n", rep.Unfair.Summary())
	if !rep.Unfair.Converges && rep.Fair != nil {
		fmt.Printf("fair convergence: %s\n", rep.Fair.Summary())
	}
	res := core.VerifyResult{Closure: rep.Closure, Unfair: rep.Unfair, FairOnly: rep.Fair}
	if res.Tolerant() {
		fmt.Println("verdict: the program is T-tolerant for S")
	} else {
		fmt.Println("verdict: the program is NOT T-tolerant for S")
	}
	if rep.Metrics != nil {
		fmt.Println("\n=== tolerance metrics ===")
		fmt.Print(rep.Metrics.Summary())
	}
	return nil
}

// verifyPlain reports a plain instance's (no layered design) check,
// adding the convergence-stair report for instances that declare one (the
// composed protocol).
func verifyPlain(c *service.Compiled, rep *verify.Report) error {
	ctx := context.Background()
	count := rep.Space.FullCount
	fmt.Printf("program %s: %d states\n", c.Name(), count)
	if sym := rep.Space.Symmetry(); sym != nil {
		reps, _ := rep.Space.QuotientStats()
		fmt.Printf("symmetry %s: quotient of %d orbit representatives\n", sym.Name, reps)
	}
	if seg, spooled := rep.Space.SpillStats(); seg+spooled > 0 {
		fmt.Printf("disk tier: %s of CSR segments, %s spooled through frontier runs\n",
			byteString(seg), byteString(spooled))
	}
	if rep.Closure != nil {
		fmt.Printf("closure: VIOLATED — %v\n", rep.Closure)
	} else {
		fmt.Println("closure: S closed")
	}
	fmt.Printf("convergence: %s\n", rep.Unfair.Summary())
	fair := rep.Fair
	stair := c.Stair()
	if len(stair) > 0 && fair == nil {
		// The stair report below speaks about the fair daemon; compute its
		// verdict even when the arbitrary daemon already converges.
		var err error
		if fair, err = rep.Space.CheckFairConvergenceContext(ctx); err != nil {
			return err
		}
	}
	if fair != nil {
		fmt.Printf("fair convergence: %s\n", fair.Summary())
	}
	if len(stair) > 0 {
		res, err := rep.Space.CheckStairContext(ctx, stair, true)
		if err != nil {
			return err
		}
		fmt.Printf("convergence stair (true -> ... -> S, fair): ok=%v\n", res.OK)
		for _, step := range res.Steps {
			fmt.Printf("  %s -> %s: closed=%v converges=%v %s\n",
				step.From, step.To, step.Closed, step.Converges, step.Detail)
		}
	}
	if rep.Metrics != nil {
		fmt.Println("=== tolerance metrics ===")
		fmt.Print(rep.Metrics.Summary())
	}
	fmt.Printf("checked %d states in %v (workers=%d)\n", count, rep.Elapsed, rep.Options.Workers)
	return nil
}
