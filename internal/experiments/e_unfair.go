package experiments

import (
	"fmt"
	"math/rand"

	"nonmask/internal/core"
	"nonmask/internal/daemon"
	"nonmask/internal/metrics"
	"nonmask/internal/program"
	"nonmask/internal/protocols/diffusing"
	"nonmask/internal/protocols/reset"
	"nonmask/internal/protocols/spanningtree"
	"nonmask/internal/protocols/termination"
	"nonmask/internal/protocols/tokenring"
	"nonmask/internal/protocols/xyz"
	"nonmask/internal/sim"
	"nonmask/internal/verify"
)

func init() {
	register(&Experiment{
		ID:       "E9",
		Title:    "Fairness is unnecessary: unfair-daemon convergence of every design",
		PaperRef: "Section 8, concluding remarks",
		Run:      runE9,
	})
}

// runE9 exercises the Section 8 remark twice over: exactly (the model
// checker's arbitrary daemon subsumes every unfair schedule) on small
// instances, and statistically with greedy adversarial daemons at scale.
func runE9() (*metrics.Table, error) {
	t := metrics.NewTable("E9: convergence without fairness (paper Section 8 remark)",
		"design", "instance", "check", "converges", "detail")

	// Exact: the arbitrary-daemon verdict covers all unfair schedules.
	smalls := []struct {
		name, instance string
		design         *core.Design
	}{}
	if inst, err := xyz.New(xyz.OutTree); err == nil {
		smalls = append(smalls, struct {
			name, instance string
			design         *core.Design
		}{"xyz", "out-tree", inst.Design})
	}
	if inst, err := diffusing.New(diffusing.Binary(7)); err == nil {
		smalls = append(smalls, struct {
			name, instance string
			design         *core.Design
		}{"diffusing", "binary N=7", inst.Design})
	}
	if inst, err := tokenring.NewPath(4, 5); err == nil {
		smalls = append(smalls, struct {
			name, instance string
			design         *core.Design
		}{"tokenring-path", "N=4 K=5", inst.Design})
	}
	if inst, err := spanningtree.New(spanningtree.Complete(4)); err == nil {
		smalls = append(smalls, struct {
			name, instance string
			design         *core.Design
		}{"spanningtree", "K4", inst.Design})
	}
	if inst, err := reset.New(diffusing.Chain(3)); err == nil {
		smalls = append(smalls, struct {
			name, instance string
			design         *core.Design
		}{"reset", "chain N=3", inst.Design})
	}
	if inst, err := termination.New(diffusing.Star(4)); err == nil {
		smalls = append(smalls, struct {
			name, instance string
			design         *core.Design
		}{"termination", "star N=4", inst.Design})
	}
	for _, s := range smalls {
		res, err := s.design.Verify(verify.Options{})
		if err != nil {
			return nil, err
		}
		res.Report.Close()
		t.AddRow(s.name, s.instance, "exact (all unfair schedules)",
			verdict(res.Unfair.Converges),
			fmt.Sprintf("worst %d steps", res.Unfair.WorstSteps))
	}

	// At scale: greedy violation-maximizing daemon, 30 corrupted starts.
	bigs := []struct {
		name, instance string
		p              *program.Program
		S              *program.Predicate
		preds          []*program.Predicate
	}{}
	if inst, err := diffusing.New(diffusing.Binary(127)); err == nil {
		var preds []*program.Predicate
		for _, c := range inst.Design.Set.Constraints {
			preds = append(preds, c.Pred)
		}
		bigs = append(bigs, struct {
			name, instance string
			p              *program.Program
			S              *program.Predicate
			preds          []*program.Predicate
		}{"diffusing", "binary N=127", inst.Design.TolerantProgram(), inst.Design.S, preds})
	}
	if inst, err := tokenring.NewRing(63, 65); err == nil {
		bigs = append(bigs, struct {
			name, instance string
			p              *program.Program
			S              *program.Predicate
			preds          []*program.Predicate
		}{"tokenring-ring", "N=63 K=65", inst.P, inst.S, []*program.Predicate{inst.S}})
	}
	if inst, err := spanningtree.New(spanningtree.Grid(6, 6)); err == nil {
		var preds []*program.Predicate
		for _, c := range inst.Design.Set.Constraints {
			preds = append(preds, c.Pred)
		}
		bigs = append(bigs, struct {
			name, instance string
			p              *program.Program
			S              *program.Predicate
			preds          []*program.Predicate
		}{"spanningtree", "grid 6x6", inst.Design.TolerantProgram(), inst.Design.S, preds})
	}
	for _, b := range bigs {
		d := daemon.NewAdversarial("max-violations", daemon.ViolationMetric(b.preds))
		r := &sim.Runner{P: b.p, S: b.S, D: d, MaxSteps: 5_000_000, StopAtS: true}
		rng := rand.New(rand.NewSource(17))
		batch := r.RunMany(30, rng, sim.RandomStates(b.p.Schema))
		s := metrics.Summarize(metrics.IntsToFloats(batch.Steps))
		t.AddRow(b.name, b.instance, "greedy adversary, 30 runs",
			verdict(batch.ConvergenceRate() == 1),
			fmt.Sprintf("mean %.0f, max %.0f steps", s.Mean, s.Max))
	}
	t.Note("exact rows subsume every unfair schedule; adversary rows stress large instances")
	return t, nil
}
