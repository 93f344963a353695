// Command gclrun parses, validates and checks a guarded-command (.gcl)
// source file written in the paper's Section 2 notation: it prints the
// compiled program's structure, applies the paper's theorems when the
// invariants carry establishing convergence actions, and model-checks
// closure and convergence exactly when the state space is enumerable.
//
// Usage:
//
//	gclrun testdata/diffusing.gcl
//	gclrun -print testdata/tokenring.gcl      # pretty-print only
//	gclrun -strategy exhaustive file.gcl
//	gclrun -workers 1 -max-states 1000000 file.gcl
//	gclrun -json file.gcl                     # service.Result JSON
//	gclrun -trace -progress file.gcl          # pass table + live ticker on stderr
//	gclrun -remote http://127.0.0.1:8080 file.gcl   # submit to csserved, watch live
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"nonmask/internal/gcl"
	"nonmask/internal/obs"
	"nonmask/internal/service"
	"nonmask/internal/service/client"
	"nonmask/internal/verify"
)

func main() {
	var (
		printOnly = flag.Bool("print", false, "parse and pretty-print, then exit")
		strategy  = flag.String("strategy", "projected", "preservation strategy: projected | exhaustive")
		workers   = flag.Int("workers", 0, "goroutines sharding the checker's passes (0 = all CPUs, 1 = sequential)")
		maxStates = flag.Int64("max-states", 0, fmt.Sprintf("state-space cap (0 = default %d)", verify.DefaultMaxStates))
		spaceMode = flag.String("space-mode", "auto", "state-space tier: auto (escalate full -> spill as the instance outgrows RAM) | full | spill (quotient needs a catalog protocol; GCL sources advertise no symmetry)")
		spillDir  = flag.String("spill-dir", "", "directory for the disk tier's CSR segments and frontier runs when an instance's CSR outgrows RAM (empty = OS temp dir)")
		jsonOut   = flag.Bool("json", false, "emit the machine-readable service.Result JSON instead of prose")
		measure   = flag.Bool("measure", false, "additionally run the quantitative tolerance metrics (distance profile, worst/expected stabilization time, per-constraint recovery costs)")
		trace     = flag.Bool("trace", false, "print the per-pass span table (states, frontier, wall time) on stderr")
		progress  = flag.Bool("progress", false, "stream live per-pass progress lines on stderr")
		remote    = flag.String("remote", "", "submit the source to a csserved at this URL and watch its event stream instead of checking locally")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gclrun [-print] [-json] [-trace] [-progress] [-remote URL] [-strategy s] [-workers n] [-max-states n] <file.gcl>")
		os.Exit(2)
	}
	if *remote != "" {
		if err := runRemote(*remote, flag.Arg(0), *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "gclrun:", err)
			os.Exit(1)
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
		fmt.Fprintln(os.Stderr, "gclrun:", flagErr)
		os.Exit(2)
	}
	if opts.SpaceMode == verify.SpaceQuotient {
		// Mirrors the service's rejection: the quotient tier needs an
		// advertised automorphism group, which only catalog protocols carry.
		fmt.Fprintln(os.Stderr, "gclrun: -space-mode quotient needs an advertised symmetry group; GCL sources have none (use csverify -protocol for catalog instances)")
		os.Exit(2)
	}
	// Both observability streams write stderr, keeping -json stdout clean.
	var collector *obs.Collector
	if *trace {
		collector = &obs.Collector{}
		opts.Tracer = collector
	}
	stopProgress := func() {}
	if *progress {
		p := &obs.Progress{}
		opts.Progress = p
		stopProgress = p.Watch(500*time.Millisecond, printSnapshot)
	}
	err := run(flag.Arg(0), *printOnly, *jsonOut, opts)
	stopProgress()
	if collector != nil {
		fmt.Fprint(os.Stderr, obs.FormatTable(collector.Passes()))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gclrun:", err)
		os.Exit(1)
	}
}

// runRemote ships the GCL source to a csserved as a job and tails its
// event stream: the replayed history plus live pass spans and progress,
// the final pass table, and the result fetched once the stream ends at
// the terminal job event.
func runRemote(baseURL, path string, jsonOut bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	c := client.New(baseURL, nil)
	st, err := c.Submit(ctx, service.JobSpec{Source: string(src)})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gclrun: submitted %s to %s\n", st.ID, baseURL)
	state, detail, stats, err := c.TailJob(ctx, st.ID, 0, os.Stderr)
	if err != nil {
		return err
	}
	if len(stats) > 0 {
		fmt.Fprint(os.Stderr, obs.FormatTable(stats))
	}
	final, err := c.Job(ctx, st.ID, 0)
	if err != nil {
		return err
	}
	if jsonOut && final.Result != nil {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(final.Result)
	}
	fmt.Printf("job %s: %s", st.ID, state)
	if detail != "" {
		fmt.Printf(" (%s)", detail)
	}
	fmt.Println()
	if state != service.StateDone {
		return fmt.Errorf("job finished %s: %s", state, final.Error)
	}
	return nil
}

// printSnapshot renders one -progress ticker line.
func printSnapshot(s obs.Snapshot) {
	if s.Pass == "" {
		return
	}
	if s.Total > 0 {
		fmt.Fprintf(os.Stderr, "gclrun: %-16s %d/%d states in %v\n",
			s.Pass, s.Done, s.Total, s.Elapsed.Round(time.Millisecond))
		return
	}
	fmt.Fprintf(os.Stderr, "gclrun: %-16s %d states in %v\n",
		s.Pass, s.Done, s.Elapsed.Round(time.Millisecond))
}

// effectiveCap resolves the zero-means-default state cap.
func effectiveCap(opts verify.Options) int64 {
	if opts.MaxStates > 0 {
		return opts.MaxStates
	}
	return verify.DefaultMaxStates
}

func run(path string, printOnly, jsonOut bool, opts verify.Options) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	file, err := gcl.Parse(string(src))
	if err != nil {
		return err
	}
	if printOnly {
		fmt.Print(gcl.Print(file))
		return nil
	}
	m, err := gcl.Compile(file)
	if err != nil {
		return err
	}

	// The metrics passes break recovery costs down by the module's compiled
	// invariant conjuncts (one spec per invariant declaration).
	specs := make([]verify.ConstraintSpec, 0, len(m.Set.Constraints))
	for _, c := range m.Set.Constraints {
		specs = append(specs, verify.ConstraintSpec{Name: c.Pred.Name, Pred: c.Pred})
	}

	if jsonOut {
		count, ok := m.Schema.StateCount()
		if !ok || count > effectiveCap(opts) {
			return fmt.Errorf("state space too large to enumerate (%d states)", count)
		}
		rep, err := verify.Check(context.Background(), m.Program, m.S, m.T,
			verify.WithOptions(opts), verify.WithConstraints(specs...))
		if err != nil {
			return err
		}
		defer rep.Close()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(service.ResultFromReport(m.Name, rep))
	}

	fmt.Printf("program %s: %d variables, %d actions, %d constraints\n",
		m.Name, m.Schema.Len(), len(m.Program.Actions), m.Set.Len())
	fmt.Print(m.Program.DescribeActions())

	if m.Design == nil {
		fmt.Println("\nno complete invariant/convergence pairing (add 'establishes' clauses);")
		fmt.Println("skipping theorem validation")
	} else {
		fmt.Println("\n=== theorem validation ===")
		applicable, all, err := m.Design.Validate(opts.Strategy, opts)
		if err != nil {
			return err
		}
		if applicable != nil {
			fmt.Printf("%s", applicable)
			if applicable.Graph != nil {
				fmt.Println("constraint graph:")
				fmt.Print(applicable.Graph.String(m.Schema))
			}
		} else {
			fmt.Println("no sufficient condition applies; reports:")
			for _, r := range all {
				fmt.Printf("%s\n", r)
			}
		}
	}

	count, ok := m.Schema.StateCount()
	if !ok || count > effectiveCap(opts) {
		fmt.Printf("\nstate space too large to enumerate (%d states); stopping at validation\n", count)
		return nil
	}
	fmt.Println("\n=== exact model checking ===")
	rep, err := verify.Check(context.Background(), m.Program, m.S, m.T,
		verify.WithOptions(opts), verify.WithConstraints(specs...))
	if err != nil {
		return err
	}
	defer rep.Close()
	fmt.Printf("state space: %d states, |S| = %d, |T| = %d\n", count, rep.Space.CountS(), rep.Space.CountT())
	if rep.Closure != nil {
		fmt.Printf("closure: VIOLATED — %v\n", rep.Closure)
	} else {
		fmt.Println("closure: S and T closed")
	}
	fmt.Printf("convergence: %s\n", rep.Unfair.Summary())
	if rep.Fair != nil {
		fmt.Printf("fair convergence: %s\n", rep.Fair.Summary())
	}
	if rep.Metrics != nil {
		fmt.Println("\n=== tolerance metrics ===")
		fmt.Print(rep.Metrics.Summary())
	}
	fmt.Printf("checked %d states in %v (workers=%d)\n", count, rep.Elapsed, rep.Options.Workers)
	return nil
}
