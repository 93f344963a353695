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

	opts := verify.Options{Workers: *workers, MaxStates: *maxStates, Metrics: *measure, SpillDir: *spillDir}
	if *strategy == "exhaustive" {
		opts.Strategy = verify.Exhaustive
	} else {
		opts.Strategy = verify.Projected
	}
	var flagErr error
	if opts.SpaceMode, flagErr = verify.ParseSpaceMode(*spaceMode); flagErr != nil {
		fmt.Fprintln(os.Stderr, "csverify:", flagErr)
		os.Exit(2)
	}
	// -trace collects every pass span the check emits (including stair and
	// fair-convergence follow-ups, which inherit the options' tracer) and
	// prints the table after the verdict; -progress samples the hot loops'
	// shared counter twice a second. Both write stderr, so -json output
	// stays parseable.
	var collector *obs.Collector
	if *trace {
		collector = &obs.Collector{}
		opts.Tracer = collector
	}
	stopProgress := func() {}
	if *progress {
		p := &obs.Progress{}
		opts.Progress = p
		stopProgress = p.Watch(500*time.Millisecond, func(s obs.Snapshot) {
			printSnapshot("csverify", s)
		})
	}

	params := registry.Params{N: *n, K: *k, Tree: *tree, Graph: *graphStr, Variant: *variant, Seed: *seed}
	var err error
	switch {
	case *sabotage != 0:
		if *storeDir != "" {
			err = fmt.Errorf("-sabotage does not combine with -store (witnesses are not store records)")
		} else {
			sabOpts := saboteur.Options{K: *sabotage, Objective: *objective, Budget: *budget}
			err = runSabotage(*protocol, params, opts, sabOpts, *jsonOut, *witOut)
		}
	case *storeDir != "":
		err = runStored(*protocol, params, opts, *jsonOut, *storeDir)
	default:
		err = run(*protocol, params, opts, *jsonOut)
	}
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

// applySymmetry attaches the instance's advertised symmetry group to the
// options under the same soundness policy csserved applies: no quotient
// under the saboteur (the witness must replay on concrete states) and no
// quotient when per-constraint metrics run on a layered design (the
// constraint predicates are permuted by the group, not preserved — see
// registry.Instance.Symmetry). Auto mode silently stays on the full/spill
// ladder in those cases; an explicit -space-mode quotient errors with the
// reason.
func applySymmetry(opts verify.Options, inst *registry.Instance, sabotage bool) (verify.Options, error) {
	sym := inst.Symmetry
	switch {
	case sabotage:
		if opts.SpaceMode == verify.SpaceQuotient {
			return opts, fmt.Errorf("-space-mode quotient does not combine with -sabotage: the fault-schedule witness must replay on concrete states, not orbit representatives")
		}
		sym = nil
	case opts.Metrics && len(registry.ConstraintSpecs(inst)) > 0:
		if opts.SpaceMode == verify.SpaceQuotient {
			return opts, fmt.Errorf("-space-mode quotient does not combine with -measure on a layered design: per-constraint recovery costs are not symmetry-invariant")
		}
		sym = nil
	}
	if opts.SpaceMode == verify.SpaceQuotient && sym == nil {
		return opts, fmt.Errorf("%s advertises no symmetry group; -space-mode quotient needs one", inst.Name)
	}
	opts.Symmetry = sym
	return opts, nil
}

func run(protocol string, params registry.Params, opts verify.Options, jsonOut bool) error {
	inst, err := registry.Build(protocol, params)
	if err != nil {
		return err
	}
	if jsonOut {
		if opts, err = applySymmetry(opts, inst, false); err != nil {
			return err
		}
		return verifyJSON(inst, opts)
	}
	if inst.Design != nil {
		// The prose design path runs theorem validation and per-constraint
		// closure/preservation scans, which evaluate node-indexed predicates
		// the quotient does not preserve; it never engages the symmetry
		// tier. The unified Check path behind -json does.
		if opts.SpaceMode == verify.SpaceQuotient {
			return fmt.Errorf("the design-validation output evaluates per-constraint predicates, which are not symmetry-invariant; use -json for the quotient check")
		}
		return verifyDesign(inst.Design, opts)
	}
	if opts, err = applySymmetry(opts, inst, false); err != nil {
		return err
	}
	return verifyPlain(inst, opts)
}

// runSabotage checks the instance, then runs the adversarial
// fault-schedule search on the same enumerated space and reports the
// worst k-fault schedule it proved. The witness (when the schedule does
// damage) can be written out for cssim -replay.
func runSabotage(protocol string, params registry.Params, opts verify.Options,
	sabOpts saboteur.Options, jsonOut bool, witOut string) error {
	normalized, err := registry.Normalize(protocol, params)
	if err != nil {
		return err
	}
	// Same pre-queue gate the service applies: the search enumerates the
	// full space, so the advertised bound is enforced up front.
	if err := registry.ValidateAnalyses(protocol, normalized,
		[]string{registry.AnalysisSaboteur}, opts.MaxStates); err != nil {
		return err
	}
	inst, err := registry.Build(protocol, normalized)
	if err != nil {
		return err
	}
	if opts, err = applySymmetry(opts, inst, true); err != nil {
		return err
	}
	ctx := context.Background()
	rep, err := verify.Check(ctx, inst.Program, inst.S, inst.T,
		verify.WithOptions(opts), verify.WithConstraints(registry.ConstraintSpecs(inst)...))
	if err != nil {
		return err
	}
	defer rep.Close()
	sabRes, err := saboteur.Search(ctx, rep.Space, sabOpts)
	if err != nil {
		return err
	}
	if w := sabRes.Witness; w != nil {
		// Stamp the catalog identity so the witness file alone rebuilds
		// the instance.
		w.Protocol = protocol
		w.Params = &normalized
		if witOut != "" {
			enc, err := w.Encode()
			if err != nil {
				return err
			}
			if err := os.WriteFile(witOut, enc, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "csverify: witness (%d fault + %d recovery steps) written to %s\n",
				len(w.Steps), len(w.Recovery), witOut)
		}
	} else if witOut != "" {
		fmt.Fprintf(os.Stderr, "csverify: no witness to write (no %d-fault schedule does damage)\n", sabRes.K)
	}
	if jsonOut {
		res := service.ResultFromReport(inst.Name, rep)
		res.Saboteur = service.SaboteurResultFrom(sabRes)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Printf("program %s: %d states\n", inst.Name, rep.Space.Count)
	fmt.Printf("convergence: %s\n", rep.Unfair.Summary())
	status := "optimal within k"
	if !sabRes.Optimal {
		status = fmt.Sprintf("budget %d exhausted, incumbent only", sabOpts.Budget)
	}
	switch sabRes.Objective {
	case saboteur.ObjectiveEscape:
		if sabRes.Escaped {
			fmt.Printf("saboteur: escape with %d faults (%s; expanded %d nodes)\n",
				sabRes.Cost, status, sabRes.Expanded)
		} else {
			fmt.Printf("saboteur: T confines every %d-fault schedule (%s; expanded %d nodes)\n",
				sabRes.K, status, sabRes.Expanded)
		}
	default:
		fmt.Printf("saboteur: worst %d-fault schedule forces %d recovery steps (%s; expanded %d nodes, %d rounds, Δmax %d)\n",
			sabRes.K, sabRes.Cost, status, sabRes.Expanded, sabRes.Rounds, sabRes.DeltaMax)
	}
	fmt.Printf("search time: %v\n", sabRes.Elapsed)
	return nil
}

// runStored checks a protocol instance through the shared persistent
// verdict store: the key is the same content-address csserved uses
// (protocol + normalized params + semantic options), so a verdict computed
// by either tool answers the other without re-verification. A store hit
// skips the check entirely; a miss runs it and appends the verdict.
func runStored(protocol string, params registry.Params, opts verify.Options, jsonOut bool, dir string) error {
	normalized, err := registry.Normalize(protocol, params)
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	defer st.Close()

	key := service.FingerprintProtocol(protocol, normalized, opts)
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

	inst, err := registry.Build(protocol, normalized)
	if err != nil {
		return err
	}
	if opts, err = applySymmetry(opts, inst, false); err != nil {
		return err
	}
	count, ok := inst.Program.Schema.StateCount()
	if !ok || count > effectiveCap(opts) {
		return fmt.Errorf("state space too large to enumerate (%d states)", count)
	}
	rep, err := verify.Check(context.Background(), inst.Program, inst.S, inst.T,
		verify.WithOptions(opts), verify.WithConstraints(registry.ConstraintSpecs(inst)...))
	if err != nil {
		return err
	}
	defer rep.Close()
	res := service.ResultFromReport(inst.Name, rep)
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := st.Put(key, raw); err != nil {
		return fmt.Errorf("store verdict: %w", err)
	}
	return emitResult(res, jsonOut)
}

// emitResult renders a stored-or-fresh Result: the shared JSON encoding
// with -json, a compact verdict summary otherwise.
func emitResult(res *service.Result, jsonOut bool) error {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
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

// effectiveCap resolves the zero-means-default convention for the
// enumeration pre-checks below.
func effectiveCap(opts verify.Options) int64 {
	if opts.MaxStates > 0 {
		return opts.MaxStates
	}
	return verify.DefaultMaxStates
}

// verifyJSON checks the instance and emits the same service.Result wire
// encoding csserved returns, so scripts can consume one format from both.
func verifyJSON(inst *registry.Instance, opts verify.Options) error {
	count, ok := inst.Program.Schema.StateCount()
	if !ok || count > effectiveCap(opts) {
		return fmt.Errorf("state space too large to enumerate (%d states)", count)
	}
	rep, err := verify.Check(context.Background(), inst.Program, inst.S, inst.T,
		verify.WithOptions(opts), verify.WithConstraints(registry.ConstraintSpecs(inst)...))
	if err != nil {
		return err
	}
	defer rep.Close()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(service.ResultFromReport(inst.Name, rep))
}

func verifyDesign(d *core.Design, opts verify.Options) error {
	fmt.Printf("design %s: %d variables, %d closure actions, %d constraints\n",
		d.Name, d.Schema.Len(), len(d.Closure), d.Set.Len())
	fmt.Println()

	fmt.Println("=== theorem validation (sufficient conditions) ===")
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
	if !ok || count > effectiveCap(opts) {
		fmt.Printf("state space too large to enumerate (%d states); use cssim instead\n", count)
		return nil
	}
	specs := make([]verify.ConstraintSpec, 0, len(d.Set.Constraints))
	for _, c := range d.Set.Constraints {
		specs = append(specs, verify.ConstraintSpec{Name: c.Pred.Name, Pred: c.Pred})
	}
	res, err := d.VerifyContext(context.Background(),
		verify.WithOptions(opts), verify.WithConstraints(specs...))
	if err != nil {
		return err
	}
	fmt.Printf("state space: %d states, classification: %v\n", count, res.Classification)
	if res.Closure != nil {
		fmt.Printf("closure: VIOLATED — %v\n", res.Closure)
	} else {
		fmt.Println("closure: S and T closed in p ∪ q")
	}
	fmt.Printf("convergence: %s\n", res.Unfair.Summary())
	if !res.Unfair.Converges && res.FairOnly != nil {
		fmt.Printf("fair convergence: %s\n", res.FairOnly.Summary())
	}
	if res.Tolerant() {
		fmt.Println("verdict: the program is T-tolerant for S")
	} else {
		fmt.Println("verdict: the program is NOT T-tolerant for S")
	}
	if res.Report != nil && res.Report.Metrics != nil {
		fmt.Println("\n=== tolerance metrics ===")
		fmt.Print(res.Report.Metrics.Summary())
	}
	return nil
}

// verifyPlain model-checks a plain instance (no layered design) through
// the unified Check entry point, adding the convergence-stair report for
// instances that declare one (the composed protocol).
func verifyPlain(inst *registry.Instance, opts verify.Options) error {
	count, ok := inst.Program.Schema.StateCount()
	if !ok || count > effectiveCap(opts) {
		return fmt.Errorf("state space too large to enumerate (%d states)", count)
	}
	ctx := context.Background()
	rep, err := verify.Check(ctx, inst.Program, inst.S, inst.T,
		verify.WithOptions(opts), verify.WithConstraints(registry.ConstraintSpecs(inst)...))
	if err != nil {
		return err
	}
	defer rep.Close()
	fmt.Printf("program %s: %d states\n", inst.Name, count)
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
	if len(inst.Stair) > 0 && fair == nil {
		// The stair report below speaks about the fair daemon; compute its
		// verdict even when the arbitrary daemon already converges.
		if fair, err = rep.Space.CheckFairConvergenceContext(ctx); err != nil {
			return err
		}
	}
	if fair != nil {
		fmt.Printf("fair convergence: %s\n", fair.Summary())
	}
	if len(inst.Stair) > 0 {
		stair, err := rep.Space.CheckStairContext(ctx, inst.Stair, true)
		if err != nil {
			return err
		}
		fmt.Printf("convergence stair (true -> ... -> S, fair): ok=%v\n", stair.OK)
		for _, step := range stair.Steps {
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
