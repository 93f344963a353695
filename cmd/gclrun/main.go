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
	// The flags spell a job spec for the service's own compiler, so gclrun
	// validates options and refuses the quotient tier exactly as csserved
	// does for a GCL source job.
	opts := service.JobOptions{Workers: *workers, MaxStates: *maxStates, Strategy: *strategy, SpaceMode: *spaceMode}
	if *measure {
		opts.Analyses = []string{service.AnalysisMetrics}
	}
	// Both observability streams write stderr, keeping -json stdout clean.
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
		stopProgress = prog.Watch(500*time.Millisecond, printSnapshot)
	}
	err := run(flag.Arg(0), *printOnly, *jsonOut, opts, *spillDir, tracer, prog)
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

func run(path string, printOnly, jsonOut bool, opts service.JobOptions, spillDir string,
	tracer obs.Tracer, prog *obs.Progress) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if printOnly {
		file, err := gcl.Parse(string(src))
		if err != nil {
			return err
		}
		fmt.Print(gcl.Print(file))
		return nil
	}
	c, err := service.Compile(service.JobSpec{Source: string(src), Options: opts},
		service.Config{SpillDir: spillDir})
	if err != nil {
		return err
	}
	ctx := context.Background()
	if jsonOut {
		rep, _, err := c.Run(ctx, tracer, prog, nil)
		if rep != nil {
			defer rep.Close()
		}
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(c.Result(rep, nil))
	}

	p := c.Program()
	fmt.Printf("program %s: %d variables, %d actions, %d constraints\n",
		c.Name(), p.Schema.Len(), len(p.Actions), len(c.Constraints()))
	fmt.Print(p.DescribeActions())

	vopts := c.Options()
	vopts.Tracer, vopts.Progress = tracer, prog
	if d := c.Design(); d == nil {
		fmt.Println("\nno complete invariant/convergence pairing (add 'establishes' clauses);")
		fmt.Println("skipping theorem validation")
	} else {
		fmt.Println("\n=== theorem validation ===")
		applicable, all, err := d.Validate(vopts.Strategy, vopts)
		if err != nil {
			return err
		}
		if applicable != nil {
			fmt.Printf("%s", applicable)
			if applicable.Graph != nil {
				fmt.Println("constraint graph:")
				fmt.Print(applicable.Graph.String(p.Schema))
			}
		} else {
			fmt.Println("no sufficient condition applies; reports:")
			for _, r := range all {
				fmt.Printf("%s\n", r)
			}
		}
	}

	count, ok := p.Schema.StateCount()
	if !ok || count > vopts.MaxStates {
		fmt.Printf("\nstate space too large to enumerate (%d states); stopping at validation\n", count)
		return nil
	}
	fmt.Println("\n=== exact model checking ===")
	rep, _, err := c.Run(ctx, tracer, prog, nil)
	if rep != nil {
		defer rep.Close()
	}
	if err != nil {
		return err
	}
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
