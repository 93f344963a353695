package experiments

import (
	"fmt"
	"math/rand"

	"nonmask/internal/daemon"
	"nonmask/internal/fault"
	"nonmask/internal/metrics"
	"nonmask/internal/program"
	"nonmask/internal/protocols/diffusing"
	"nonmask/internal/sim"
	"nonmask/internal/verify"
)

func init() {
	register(&Experiment{
		ID:       "E3",
		Title:    "Diffusing computation: Theorem 1 validation + exact stabilization",
		PaperRef: "Section 5.1 design, Theorem 1",
		Run:      runE3,
	})
	register(&Experiment{
		ID:       "E4",
		Title:    "Fault-free wave behaviour (red descent, green reflection, repetition)",
		PaperRef: "Section 5.1 specification",
		Run:      runE4,
	})
	register(&Experiment{
		ID:       "E5",
		Title:    "Convergence after corrupting any number of nodes, vs N and shape",
		PaperRef: "Section 5.1 fault model",
		Run:      runE5,
	})
}

// runE3 model-checks the headline Section 5.1 claim exactly on small trees.
func runE3() (*metrics.Table, error) {
	t := metrics.NewTable("E3: diffusing computation is stabilizing (Theorem 1 + model checker)",
		"tree", "N", "theorem 1", "closure", "unfair conv", "worst steps", "mean steps", "|T∧¬S|")
	cases := []struct {
		name string
		tr   diffusing.Tree
	}{
		{"chain", diffusing.Chain(3)},
		{"chain", diffusing.Chain(5)},
		{"chain", diffusing.Chain(7)},
		{"star", diffusing.Star(5)},
		{"star", diffusing.Star(7)},
		{"binary", diffusing.Binary(7)},
		{"random(seed 11)", diffusing.Random(7, 11)},
		{"random(seed 12)", diffusing.Random(8, 12)},
	}
	for _, c := range cases {
		inst, err := diffusing.New(c.tr)
		if err != nil {
			return nil, err
		}
		r, _, err := inst.Design.Validate(verify.Projected, verify.Options{})
		if err != nil {
			return nil, err
		}
		res, err := inst.Design.Verify(verify.Options{})
		if err != nil {
			return nil, err
		}
		res.Report.Close()
		t.AddRow(c.name, fmt.Sprintf("%d", c.tr.N()),
			verdict(r != nil),
			verdict(res.Closure == nil),
			verdict(res.Unfair.Converges),
			fmt.Sprintf("%d", res.Unfair.WorstSteps),
			fmt.Sprintf("%.2f", res.Unfair.MeanSteps),
			fmt.Sprintf("%d", res.Unfair.StatesOutsideS))
	}
	t.Note("unfair convergence confirms the Section 8 remark: fairness is unnecessary here")
	return t, nil
}

// runE4 measures the fault-free wave: cycles complete, every cycle spans
// all nodes, and no convergence action ever fires.
func runE4() (*metrics.Table, error) {
	t := metrics.NewTable("E4: fault-free wave behaviour (round-robin daemon)",
		"tree", "N", "steps", "cycles", "full cycles", "steps/cycle", "conv actions fired")
	for _, n := range []int{15, 63, 255, 1023} {
		inst, err := diffusing.New(diffusing.Binary(n))
		if err != nil {
			return nil, err
		}
		p := inst.Design.TolerantProgram()
		obs := diffusing.NewWaveObserver(inst)
		steps := 40 * n
		r := &sim.Runner{
			P: p, S: inst.Design.S,
			D:        daemon.NewRoundRobin(p),
			MaxSteps: steps,
			OnStep:   func(_ int, st *program.State, _ *program.Action) { obs.Observe(st) },
		}
		res := r.Run(inst.AllGreen(), nil)
		perCycle := "-"
		if obs.Cycles > 0 {
			perCycle = fmt.Sprintf("%.1f", float64(res.TotalSteps)/float64(obs.Cycles))
		}
		t.AddRow("binary", fmt.Sprintf("%d", n), fmt.Sprintf("%d", res.TotalSteps),
			fmt.Sprintf("%d", obs.Cycles), fmt.Sprintf("%d", obs.FullCycles),
			perCycle, fmt.Sprintf("%d", res.ActionCounts[program.Convergence]))
	}
	t.Note("every completed cycle spans all N nodes; zero convergence actions confirms closure")
	t.Note("steps/cycle grows linearly in N: each wave is one descent plus one reflection")
	return t, nil
}

// runE5 measures recovery cost from arbitrary corruption across sizes,
// shapes and daemons.
func runE5() (*metrics.Table, error) {
	t := metrics.NewTable("E5: convergence steps after corrupting all nodes (100 runs each)",
		"tree", "N", "depth", "daemon", "mean", "p95", "max")
	type cse struct {
		name string
		tr   diffusing.Tree
	}
	cases := []cse{
		{"binary", diffusing.Binary(15)},
		{"binary", diffusing.Binary(63)},
		{"binary", diffusing.Binary(255)},
		{"chain", diffusing.Chain(63)},
		{"star", diffusing.Star(63)},
		{"random(seed 5)", diffusing.Random(63, 5)},
	}
	for _, c := range cases {
		inst, err := diffusing.New(c.tr)
		if err != nil {
			return nil, err
		}
		p := inst.Design.TolerantProgram()
		var preds []*program.Predicate
		for _, cst := range inst.Design.Set.Constraints {
			preds = append(preds, cst.Pred)
		}
		daemons := []daemon.Daemon{
			daemon.NewRoundRobin(p),
			daemon.NewRandom(42),
			daemon.NewAdversarial("adversarial", daemon.ViolationMetric(preds)),
		}
		for _, d := range daemons {
			r := &sim.Runner{P: p, S: inst.Design.S, D: d, MaxSteps: 4_000_000, StopAtS: true}
			rng := rand.New(rand.NewSource(7))
			batch := r.RunMany(100, rng, sim.CorruptedStates(inst.AllGreen(),
				&fault.CorruptGroups{Groups: inst.Groups}))
			if batch.ConvergenceRate() != 1 {
				return nil, fmt.Errorf("E5: %s/%s converged %.2f", c.name, d.Name(), batch.ConvergenceRate())
			}
			s := metrics.Summarize(metrics.IntsToFloats(batch.Steps))
			t.AddRow(c.name, fmt.Sprintf("%d", c.tr.N()), fmt.Sprintf("%d", c.tr.Depth()),
				d.Name(),
				fmt.Sprintf("%.1f", s.Mean), fmt.Sprintf("%.1f", s.P95), fmt.Sprintf("%.0f", s.Max))
		}
	}
	t.Note("all 100 runs converged in every row (rate 1.0); cost scales with N and depth")
	return t, nil
}
