package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"nonmask/internal/daemon"
	"nonmask/internal/metrics"
	"nonmask/internal/program"
	"nonmask/internal/protocols/composed"
	"nonmask/internal/protocols/spanningtree"
	"nonmask/internal/sim"
	"nonmask/internal/verify"
)

func init() {
	register(&Experiment{
		ID:       "X1",
		Title:    "Extension: wave over a dynamic spanning tree needs fairness",
		PaperRef: "Section 7 (convergence stairs) + Section 8 (fairness & refinement remarks)",
		Run:      runX1,
	})
}

// runX1 contrasts the paper's single-layer designs (which converge without
// fairness — E9) with the layered composition of a diffusing wave over a
// self-stabilizing spanning tree, where fairness becomes necessary: the
// wave can cycle legitimately while a corrupted region detached from the
// root's pointer structure never repairs.
func runX1() (*metrics.Table, error) {
	t := metrics.NewTable("X1: composition reintroduces the fairness requirement",
		"graph", "check", "verdict", "detail")
	for _, tc := range []struct {
		name string
		g    spanningtree.Graph
	}{
		{"line3", spanningtree.Line(3)},
		{"triangle", spanningtree.Complete(3)},
	} {
		inst, err := composed.New(tc.g)
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		rep, err := verify.Check(ctx, inst.P, inst.S, nil)
		if err != nil {
			return nil, err
		}
		unfair := rep.Unfair
		detail := "-"
		if !unfair.Converges && len(unfair.Cycle) > 0 {
			detail = fmt.Sprintf("wave-spin livelock through %d states", len(unfair.Cycle))
		}
		t.AddRow(tc.name, "arbitrary daemon", verdict(unfair.Converges)+" (expected NO)", detail)

		fair := rep.Fair
		if fair == nil {
			if fair, err = rep.Space.CheckFairConvergenceContext(ctx); err != nil {
				rep.Close()
				return nil, err
			}
		}
		t.AddRow(tc.name, "weakly fair daemon", verdict(fair.Converges), "-")

		stair, err := rep.Space.CheckStairContext(ctx, []*program.Predicate{inst.TreeOK}, true)
		rep.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow(tc.name, "stair true→tree→S (fair)", verdict(stair.OK),
			fmt.Sprintf("%d stages", len(stair.Steps)))

		fixedRep, err := verify.Check(ctx, inst.P, inst.S, inst.TreeOK)
		if err != nil {
			return nil, err
		}
		stage2 := fixedRep.Unfair
		fixedRep.Close()
		t.AddRow(tc.name, "stage 2 alone, arbitrary daemon", verdict(stage2.Converges),
			fmt.Sprintf("worst %d steps", stage2.WorstSteps))
	}

	// At scale under a fair schedule.
	inst, err := composed.New(spanningtree.Grid(5, 5))
	if err != nil {
		return nil, err
	}
	r := &sim.Runner{
		P: inst.P, S: inst.S,
		D:        daemon.NewRoundRobin(inst.P),
		MaxSteps: 2_000_000,
		StopAtS:  true,
	}
	rng := rand.New(rand.NewSource(13))
	batch := r.RunMany(30, rng, sim.RandomStates(inst.P.Schema))
	s := metrics.Summarize(metrics.IntsToFloats(batch.Steps))
	t.AddRow("grid5x5 (sim)", "round-robin, 30 random starts",
		verdict(batch.ConvergenceRate() == 1),
		fmt.Sprintf("mean %.0f, max %.0f steps", s.Mean, s.Max))

	t.Note("the paper's fixed-tree designs converge unfairly (E9); composing the wave with")
	t.Note("tree maintenance breaks that — exactly the Section 2 fairness assumption's role.")
	t.Note("once the tree stabilizes (stage 2), unfair convergence returns.")
	return t, nil
}
