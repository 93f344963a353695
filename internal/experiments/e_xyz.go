package experiments

import (
	"context"
	"fmt"

	"nonmask/internal/constraint"
	"nonmask/internal/metrics"
	"nonmask/internal/program"
	"nonmask/internal/protocols/xyz"
	"nonmask/internal/verify"
)

func init() {
	register(&Experiment{
		ID:       "E1",
		Title:    "Constraint graph of {x != y, x <= z} (the paper's figure)",
		PaperRef: "Section 4, inline figure",
		Run:      runE1,
	})
	register(&Experiment{
		ID:       "E2",
		Title:    "Convergence of the alternative xyz designs",
		PaperRef: "Sections 4 and 6, running example",
		Run:      runE2,
	})
	register(&Experiment{
		ID:       "E6",
		Title:    "Self-looping graphs: linear order decides convergence",
		PaperRef: "Theorem 2 and the Section 6 examples",
		Run:      runE6,
	})
}

// runE1 reconstructs the Section 4 constraint-graph figure from the
// preferred convergence actions and reports its out-tree structure.
func runE1() (*metrics.Table, error) {
	inst, err := xyz.New(xyz.OutTree)
	if err != nil {
		return nil, err
	}
	cg, err := constraint.BuildGraph(inst.Design.Set.Constraints)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("E1: constraint graph of {x != y, x <= z} (paper Section 4 figure)",
		"edge", "from", "to", "constraint")
	schema := inst.Design.Schema
	for i, e := range cg.G.Edges() {
		t.AddRow(fmt.Sprintf("%d", i),
			cg.NodeLabel(schema, e.From),
			cg.NodeLabel(schema, e.To),
			cg.Constraints[e.Label].Name())
	}
	root, isTree := cg.IsOutTree()
	t.Note("out-tree: %s (root %s) — matches the paper's figure",
		verdict(isTree), cg.NodeLabel(schema, root))
	ranks, _ := cg.Ranks()
	t.Note("node ranks (Theorem 1 proof metric): %v", ranks)
	return t, nil
}

// runE2 contrasts the three designs: which theorem validates each, and the
// exact convergence ground truth under unfair and fair daemons.
func runE2() (*metrics.Table, error) {
	t := metrics.NewTable("E2: the xyz designs (paper Sections 4 and 6)",
		"design", "validated by", "unfair conv", "fair conv", "worst steps", "mean steps")
	for _, v := range xyz.Variants() {
		inst, err := xyz.New(v)
		if err != nil {
			return nil, err
		}
		r, _, err := inst.Design.Validate(verify.Exhaustive, verify.Options{})
		if err != nil {
			return nil, err
		}
		theorem := "none"
		if r != nil {
			theorem = r.Theorem.String()
		}
		res, err := inst.Design.Verify(verify.Options{})
		if err != nil {
			return nil, err
		}
		res.Report.Close()
		fair := res.Unfair.Converges
		if !fair && res.FairOnly != nil {
			fair = res.FairOnly.Converges
		}
		worst, mean := "-", "-"
		if res.Unfair.Converges {
			worst = fmt.Sprintf("%d", res.Unfair.WorstSteps)
			mean = fmt.Sprintf("%.2f", res.Unfair.MeanSteps)
		}
		t.AddRow(v.String(), theorem, verdict(res.Unfair.Converges), verdict(fair), worst, mean)
	}
	t.Note("paper claim: the interfering design can violate constraints forever; the out-tree")
	t.Note("design (Thm 1) and the ordered shared-target design (Thm 2) converge")
	return t, nil
}

// runE6 isolates Theorem 2's third antecedent: the same shared-target
// shape converges exactly when a linear order exists.
func runE6() (*metrics.Table, error) {
	t := metrics.NewTable("E6: shared-target convergence actions (paper Section 6)",
		"design", "graph self-looping", "linear order", "unfair conv", "fair conv")

	type row struct {
		name string
		cs   []*constraint.Constraint
		sch  *program.Schema
	}
	rows := []row{orderedPair(), mutualPair()}
	for _, r := range rows {
		cg, err := constraint.BuildGraph(r.cs)
		if err != nil {
			return nil, err
		}
		// Does a linear order exist? Probe via Theorem 2's precedence
		// criterion: for the two-action case, check mutual violation.
		ctx := context.Background()
		p01, err := verify.CheckPreservesContext(ctx, r.sch, r.cs[0].Action, r.cs[1].Pred, nil, verify.Options{})
		if err != nil {
			return nil, err
		}
		p10, err := verify.CheckPreservesContext(ctx, r.sch, r.cs[1].Action, r.cs[0].Pred, nil, verify.Options{})
		if err != nil {
			return nil, err
		}
		hasOrder := p01.Preserves || p10.Preserves

		p := program.New(r.name, r.sch)
		p.Add(r.cs[0].Action, r.cs[1].Action)
		S := program.And("S", r.cs[0].Pred, r.cs[1].Pred)
		rep, err := verify.Check(ctx, p, S, nil)
		if err != nil {
			return nil, err
		}
		unfair := rep.Unfair.Converges
		fair := unfair || rep.Fair.Converges
		rep.Close()
		t.AddRow(r.name, verdict(cg.IsSelfLooping()), verdict(hasOrder),
			verdict(unfair), verdict(fair))
	}
	t.Note("the linear order column is Theorem 2's third antecedent; it exactly separates")
	t.Note("the convergent design from the livelocking one")
	return t, nil
}

// orderedPair is the Section 6 positive example, reconstructed standalone:
// both actions write c, but each raise preserves the other's constraint.
func orderedPair() struct {
	name string
	cs   []*constraint.Constraint
	sch  *program.Schema
} {
	s := program.NewSchema()
	a := s.MustDeclare("a", program.IntRange(0, 4))
	b := s.MustDeclare("b", program.IntRange(0, 4))
	c := s.MustDeclare("c", program.IntRange(0, 4))
	geA := program.NewPredicate("c>=a", []program.VarID{a, c},
		func(st *program.State) bool { return st.Get(c) >= st.Get(a) })
	geB := program.NewPredicate("c>=b", []program.VarID{b, c},
		func(st *program.State) bool { return st.Get(c) >= st.Get(b) })
	fixA := program.NewAction("raise-to-a", program.Convergence,
		[]program.VarID{a, c}, []program.VarID{c},
		func(st *program.State) bool { return st.Get(c) < st.Get(a) },
		func(st *program.State) { st.Set(c, st.Get(a)) })
	fixB := program.NewAction("raise-to-b", program.Convergence,
		[]program.VarID{b, c}, []program.VarID{c},
		func(st *program.State) bool { return st.Get(c) < st.Get(b) },
		func(st *program.State) { st.Set(c, st.Get(b)) })
	return struct {
		name string
		cs   []*constraint.Constraint
		sch  *program.Schema
	}{"ordered (raises)", []*constraint.Constraint{
		{Pred: geA, Action: fixA}, {Pred: geB, Action: fixB}}, s}
}

// mutualPair is the negative example: each action can violate the other's
// constraint, so no order exists and the pair livelocks.
func mutualPair() struct {
	name string
	cs   []*constraint.Constraint
	sch  *program.Schema
} {
	s := program.NewSchema()
	a := s.MustDeclare("a", program.IntRange(0, 4))
	b := s.MustDeclare("b", program.IntRange(0, 4))
	c := s.MustDeclare("c", program.IntRange(0, 4))
	eqA := program.NewPredicate("c=a", []program.VarID{a, c},
		func(st *program.State) bool { return st.Get(c) == st.Get(a) })
	eqB := program.NewPredicate("c=b", []program.VarID{b, c},
		func(st *program.State) bool { return st.Get(c) == st.Get(b) })
	fixA := program.NewAction("copy-a", program.Convergence,
		[]program.VarID{a, c}, []program.VarID{c},
		func(st *program.State) bool { return st.Get(c) != st.Get(a) },
		func(st *program.State) { st.Set(c, st.Get(a)) })
	fixB := program.NewAction("copy-b", program.Convergence,
		[]program.VarID{b, c}, []program.VarID{c},
		func(st *program.State) bool { return st.Get(c) != st.Get(b) },
		func(st *program.State) { st.Set(c, st.Get(b)) })
	return struct {
		name string
		cs   []*constraint.Constraint
		sch  *program.Schema
	}{"mutual (copies)", []*constraint.Constraint{
		{Pred: eqA, Action: fixA}, {Pred: eqB, Action: fixB}}, s}
}
