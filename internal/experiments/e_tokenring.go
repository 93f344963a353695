package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"nonmask/internal/daemon"
	"nonmask/internal/metrics"
	"nonmask/internal/protocols/tokenring"
	"nonmask/internal/sim"
	"nonmask/internal/verify"
)

func init() {
	register(&Experiment{
		ID:       "E7",
		Title:    "Token ring: Theorem 3 validation + exact stabilization",
		PaperRef: "Section 7.1 design, Theorem 3",
		Run:      runE7,
	})
	register(&Experiment{
		ID:       "E8",
		Title:    "K-state crossover: smallest stabilizing counter space",
		PaperRef: "Section 7.1 (the ring is due to Dijkstra [9])",
		Run:      runE8,
	})
}

// runE7 validates the layered path design by Theorem 3 and model-checks
// both the path and ring variants; large rings are measured by simulation.
func runE7() (*metrics.Table, error) {
	t := metrics.NewTable("E7: token ring stabilization",
		"variant", "N", "K", "theorem 3", "unfair conv", "worst steps", "mean steps")
	for _, tc := range []struct{ n, k int }{{2, 3}, {3, 4}, {4, 5}} {
		inst, err := tokenring.NewPath(tc.n, tc.k)
		if err != nil {
			return nil, err
		}
		r, _, err := inst.Design.Validate(verify.Exhaustive, verify.Options{})
		if err != nil {
			return nil, err
		}
		res, err := inst.Design.Verify(verify.Options{})
		if err != nil {
			return nil, err
		}
		res.Report.Close()
		t.AddRow("path", fmt.Sprintf("%d", tc.n), fmt.Sprintf("%d", tc.k),
			verdict(r != nil && r.Theorem == 3),
			verdict(res.Unfair.Converges),
			fmt.Sprintf("%d", res.Unfair.WorstSteps),
			fmt.Sprintf("%.2f", res.Unfair.MeanSteps))
	}
	for _, tc := range []struct{ n, k int }{{2, 4}, {3, 5}, {4, 6}, {5, 7}} {
		inst, err := tokenring.NewRing(tc.n, tc.k)
		if err != nil {
			return nil, err
		}
		rep, err := verify.Check(context.Background(), inst.P, inst.S, nil)
		if err != nil {
			return nil, err
		}
		res := rep.Unfair
		t.AddRow("ring", fmt.Sprintf("%d", tc.n), fmt.Sprintf("%d", tc.k),
			"n/a",
			verdict(res.Converges),
			fmt.Sprintf("%d", res.WorstSteps),
			fmt.Sprintf("%.2f", res.MeanSteps))
	}
	// Large rings: simulated convergence from random states.
	for _, n := range []int{31, 127, 511} {
		inst, err := tokenring.NewRing(n, n+2)
		if err != nil {
			return nil, err
		}
		r := &sim.Runner{
			P: inst.P, S: inst.S,
			D:        daemon.NewRandom(9),
			MaxSteps: 20_000_000,
			StopAtS:  true,
		}
		rng := rand.New(rand.NewSource(3))
		batch := r.RunMany(30, rng, sim.RandomStates(inst.P.Schema))
		if batch.ConvergenceRate() != 1 {
			return nil, fmt.Errorf("E7: ring N=%d converged %.2f", n, batch.ConvergenceRate())
		}
		s := metrics.Summarize(metrics.IntsToFloats(batch.Steps))
		t.AddRow("ring(sim)", fmt.Sprintf("%d", n), fmt.Sprintf("%d", n+2), "n/a", "yes",
			fmt.Sprintf("<=%.0f", s.Max), fmt.Sprintf("%.1f", s.Mean))
	}
	t.Note("path rows: the paper's layered design; ring rows: the printed mod-K program")
	t.Note("Theorem 3 column checks all four antecedents plus the target refinement")
	return t, nil
}

// runE8 finds, exactly, the smallest K for which the N+1-node ring
// stabilizes, by model checking every (N, K) pair.
func runE8() (*metrics.Table, error) {
	t := metrics.NewTable("E8: smallest stabilizing K per ring size (exact, model-checked)",
		"nodes (N+1)", "K=2", "K=3", "K=4", "K=5", "K=6", "K=7", "min stabilizing K")
	for n := 2; n <= 5; n++ {
		row := []string{fmt.Sprintf("%d", n+1)}
		minK := -1
		for k := 2; k <= 7; k++ {
			inst, err := tokenring.NewRing(n, k)
			if err != nil {
				return nil, err
			}
			rep, err := verify.Check(context.Background(), inst.P, inst.S, nil)
			if err != nil {
				return nil, err
			}
			res := rep.Unfair
			cell := "conv"
			if !res.Converges {
				cell = "livelock"
			} else if minK < 0 {
				minK = k
			}
			row = append(row, cell)
		}
		row = append(row, fmt.Sprintf("%d", minK))
		t.AddRow(row...)
	}
	t.Note("Dijkstra's guarantee: K at least the node count stabilizes; the exact")
	t.Note("crossover found here is the classical K >= nodes-1 threshold")
	return t, nil
}
