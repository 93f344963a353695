package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"nonmask/internal/daemon"
	"nonmask/internal/metrics"
	"nonmask/internal/program"
	catalog "nonmask/internal/protocols/registry"
	"nonmask/internal/sim"
	"nonmask/internal/verify"
)

func init() {
	register(&Experiment{
		ID:       "X5",
		Title:    "Extension: exact vs sampled stabilization time",
		PaperRef: "Section 8 remark (fairness unnecessary) + metrics engine cross-check",
		Run:      runX5,
	})
}

// runX5 cross-validates the metrics engine against simulation on
// enumerable instances: the sampled mean steps-to-converge under the
// random daemon (from uniformly random non-S states) should approach the
// engine's exact MeanExpectedSteps, and a single greedy run driven by
// the worst-case distance table from the table's argmax state should
// realize exactly WorstSteps. Disagreement in the first is sampling
// noise; disagreement in the second would be a bug in either engine.
func runX5() (*metrics.Table, error) {
	t := metrics.NewTable("X5: exact metrics engine vs cssim-style sampling",
		"instance", "observable", "exact", "sampled", "runs")
	ctx := context.Background()

	for _, tc := range []struct {
		protocol string
		params   catalog.Params
	}{
		{"tokenring-ring", catalog.Params{N: 3, K: 5}},
		{"diffusing", catalog.Params{N: 7, Tree: "binary"}},
	} {
		inst, err := catalog.Build(tc.protocol, tc.params)
		if err != nil {
			return nil, err
		}
		p, S := inst.Program, inst.S
		rep, err := verify.Check(ctx, p, S, inst.T, verify.WithMetrics())
		if err != nil {
			return nil, err
		}
		m := rep.Metrics

		// Sampled expectation: the random daemon picks uniformly among
		// enabled actions — the same process the value iteration models.
		// Condition on starting outside S, matching MeanExpectedSteps.
		const runs = 4000
		rng := rand.New(rand.NewSource(7))
		r := &sim.Runner{P: p, S: S, D: daemon.NewRandom(7), MaxSteps: 100_000, StopAtS: true}
		total, n := 0, 0
		for n < runs {
			st := program.RandomState(p.Schema, rng)
			if S.Holds(st) {
				continue
			}
			res := r.Run(st, rng)
			if !res.Converged {
				rep.Close()
				return nil, fmt.Errorf("%s: sampled run did not converge", inst.Name)
			}
			total += res.Steps
			n++
		}
		t.AddRow(inst.Name, "expected steps (mean over ¬S)",
			fmt.Sprintf("%.3f", m.MeanExpectedSteps),
			fmt.Sprintf("%.3f", float64(total)/float64(n)),
			fmt.Sprintf("%d", n))

		// Sampled worst case: greedy ascent on the exact worst-distance
		// table from its argmax state reproduces the adversarial schedule.
		worst, ok := rep.Space.WorstDistances()
		if !ok {
			rep.Close()
			return nil, fmt.Errorf("%s: no worst-distance table on a convergent instance", inst.Name)
		}
		argmax := int64(0)
		for i, d := range worst {
			if d > worst[argmax] {
				argmax = int64(i)
			}
		}
		wr := &sim.Runner{
			P: p, S: S,
			D:        daemon.NewWorstCase(p.Schema, worst),
			MaxSteps: 100_000, StopAtS: true,
		}
		res := wr.Run(rep.Space.State(argmax), rng)
		rep.Close()
		t.AddRow(inst.Name, "worst-case steps",
			fmt.Sprintf("%d", m.WorstSteps), fmt.Sprintf("%d", res.Steps), "1")
	}

	t.Note("exact: verify.MetricsContext (value iteration / variant fixpoint);")
	t.Note("sampled: sim under the random resp. worst-case-greedy daemon.")
	t.Note("the worst-case rows must agree exactly; the expectation rows agree")
	t.Note("to sampling noise — the cross-check behind EXPERIMENTS' claim that")
	t.Note("cssim numbers are comparable with csverify -measure")
	return t, nil
}
