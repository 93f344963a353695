package experiments

import (
	"fmt"
	"math/rand"

	"nonmask/internal/daemon"
	"nonmask/internal/fault"
	"nonmask/internal/metrics"
	"nonmask/internal/program"
	"nonmask/internal/protocols/diffusing"
	"nonmask/internal/protocols/tokenring"
	"nonmask/internal/sim"
	"nonmask/internal/verify"
)

func init() {
	register(&Experiment{
		ID:       "A1",
		Title:    "Ablation: alternative establishing statements for R.j",
		PaperRef: "Section 5.1 ('there are several statements that establish R.j')",
		Run:      runA1,
	})
	register(&Experiment{
		ID:       "A2",
		Title:    "Ablation: separate vs combined closure/convergence actions",
		PaperRef: "Sections 5.1 and 7.1 (the combination steps)",
		Run:      runA2,
	})
	register(&Experiment{
		ID:       "A3",
		Title:    "Ablation: daemon sensitivity of convergence cost",
		PaperRef: "Section 2 computation model vs Section 8 fairness remark",
		Run:      runA3,
	})
}

// runA1 compares the two establishing statements the paper offers: both
// must validate by Theorem 1 and stabilize; the worst-case costs differ.
func runA1() (*metrics.Table, error) {
	t := metrics.NewTable("A1: establishing statement for R.j (paper Section 5.1)",
		"statement", "tree", "theorem 1", "unfair conv", "worst steps", "mean steps")
	for _, variant := range []diffusing.EstablishVariant{diffusing.CopyParent, diffusing.ConditionalGreen} {
		for _, tc := range []struct {
			name string
			tr   diffusing.Tree
		}{
			{"chain5", diffusing.Chain(5)},
			{"binary7", diffusing.Binary(7)},
		} {
			inst, err := diffusing.NewVariant(tc.tr, variant)
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
			t.AddRow(variant.String(), tc.name,
				verdict(r != nil),
				verdict(res.Unfair.Converges),
				fmt.Sprintf("%d", res.Unfair.WorstSteps),
				fmt.Sprintf("%.2f", res.Unfair.MeanSteps))
		}
	}
	t.Note("both statements satisfy Theorem 1, as the paper claims; the copy-parent form")
	t.Note("doubles as the propagation action, enabling the combined printed program")
	return t, nil
}

// runA2 confirms that combining actions (the paper's final step in both
// designs) preserves the transition relation exactly, and compares action
// counts.
func runA2() (*metrics.Table, error) {
	t := metrics.NewTable("A2: separate vs combined action forms",
		"design", "separate actions", "combined actions", "transition relations equal")

	dInst, err := diffusing.New(diffusing.Binary(6))
	if err != nil {
		return nil, err
	}
	dSame, err := sameTransitions(dInst.Design.TolerantProgram(), dInst.Combined)
	if err != nil {
		return nil, err
	}
	t.AddRow("diffusing binary6",
		fmt.Sprintf("%d", len(dInst.Design.TolerantProgram().Actions)),
		fmt.Sprintf("%d", len(dInst.Combined.Actions)),
		verdict(dSame))

	pInst, err := tokenring.NewPath(3, 4)
	if err != nil {
		return nil, err
	}
	pSame, err := sameTransitions(pInst.Design.TolerantProgram(), pInst.Combined)
	if err != nil {
		return nil, err
	}
	t.AddRow("tokenring path N=3 K=4",
		fmt.Sprintf("%d", len(pInst.Design.TolerantProgram().Actions)),
		fmt.Sprintf("%d", len(pInst.Combined.Actions)),
		verdict(pSame))

	t.Note("the combined forms are the programs the paper prints; equality is checked on")
	t.Note("every state of the instance")
	return t, nil
}

// sameTransitions compares two programs' successor sets on every state.
func sameTransitions(a, b *program.Program) (bool, error) {
	schema := a.Schema
	count, ok := schema.StateCount()
	if !ok {
		return false, fmt.Errorf("space too large")
	}
	for i := int64(0); i < count; i++ {
		st := schema.StateAt(i)
		sa := map[int64]bool{}
		for _, act := range a.Actions {
			if act.Guard(st) {
				sa[schema.Index(act.Apply(st))] = true
			}
		}
		sb := map[int64]bool{}
		for _, act := range b.Actions {
			if act.Guard(st) {
				sb[schema.Index(act.Apply(st))] = true
			}
		}
		if len(sa) != len(sb) {
			return false, nil
		}
		for k := range sa {
			if !sb[k] {
				return false, nil
			}
		}
	}
	return true, nil
}

// runA3 measures how scheduling affects convergence cost on one instance.
func runA3() (*metrics.Table, error) {
	inst, err := diffusing.New(diffusing.Binary(63))
	if err != nil {
		return nil, err
	}
	p := inst.Design.TolerantProgram()
	var preds []*program.Predicate
	for _, c := range inst.Design.Set.Constraints {
		preds = append(preds, c.Pred)
	}
	daemons := []daemon.Daemon{
		daemon.NewRoundRobin(p),
		daemon.NewRandom(5),
		daemon.NewAdversarial("adversarial", daemon.ViolationMetric(preds)),
		daemon.NewKindBiased(daemon.NewRandom(6), program.Closure),
	}
	t := metrics.NewTable("A3: daemon sensitivity (diffusing, binary N=63, all nodes corrupted, 100 runs)",
		"daemon", "converged", "mean steps", "p95", "max")
	for _, d := range daemons {
		r := &sim.Runner{P: p, S: inst.Design.S, D: d, MaxSteps: 2_000_000, StopAtS: true}
		rng := rand.New(rand.NewSource(31))
		batch := r.RunMany(100, rng, sim.CorruptedStates(inst.AllGreen(),
			&fault.CorruptGroups{Groups: inst.Groups}))
		s := metrics.Summarize(metrics.IntsToFloats(batch.Steps))
		t.AddRow(d.Name(), fmt.Sprintf("%d/100", batch.ConvergedRuns),
			fmt.Sprintf("%.1f", s.Mean), fmt.Sprintf("%.1f", s.P95), fmt.Sprintf("%.0f", s.Max))
	}
	t.Note("the closure-biased daemon starves convergence actions yet still converges:")
	t.Note("closure actions cannot re-violate established constraints (Theorem 1's first antecedent)")
	return t, nil
}
