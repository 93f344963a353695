// Quickstart: design a nonmasking fault-tolerant program from scratch with
// the paper's method, validate it with the theorems, model-check it, and
// watch it recover from injected faults.
//
// The toy system keeps three replicas of a register consistent with a
// primary: S = (r1 = p) && (r2 = p) && (r3 = p). Each constraint gets its
// own convergence action (copy from the primary), so the constraint graph
// is the out-tree {p} -> {r1}, {p} -> {r2}, {p} -> {r3} and Theorem 1
// applies. The closure action bumps the primary and all replicas together.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"nonmask"
)

func main() {
	// 1. Declare variables.
	b := nonmask.NewDesign("replicated-register")
	schema := b.Schema()
	p := schema.MustDeclare("p", nonmask.IntRange(0, 7))
	replicas := make([]nonmask.VarID, 3)
	for i := range replicas {
		replicas[i] = schema.MustDeclare(fmt.Sprintf("r%d", i+1), nonmask.IntRange(0, 7))
	}

	// 2. One closure action: advance the register everywhere at once.
	all := append([]nonmask.VarID{p}, replicas...)
	b.Closure(nonmask.NewAction("advance", nonmask.Closure, all, all,
		func(st *nonmask.State) bool {
			for _, r := range replicas {
				if st.Get(r) != st.Get(p) {
					return false
				}
			}
			return true
		},
		func(st *nonmask.State) {
			v := (st.Get(p) + 1) % 8
			st.Set(p, v)
			for _, r := range replicas {
				st.Set(r, v)
			}
		}))

	// 3. One constraint + convergence action per replica.
	for i, r := range replicas {
		r := r
		pred := nonmask.NewPredicate(fmt.Sprintf("r%d = p", i+1),
			[]nonmask.VarID{p, r},
			func(st *nonmask.State) bool { return st.Get(r) == st.Get(p) })
		fix := nonmask.NewAction(fmt.Sprintf("sync-r%d", i+1), nonmask.Convergence,
			[]nonmask.VarID{p, r}, []nonmask.VarID{r},
			func(st *nonmask.State) bool { return st.Get(r) != st.Get(p) },
			func(st *nonmask.State) { st.Set(r, st.Get(p)) })
		b.Constraint(0, pred, fix)
	}

	design, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 4. Validate with the paper's sufficient conditions.
	report, _, err := design.Validate(nonmask.Exhaustive, nonmask.VerifyOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if report == nil {
		log.Fatal("no theorem applies — revisit the convergence actions")
	}
	fmt.Printf("validated by %v\n", report.Theorem)

	// 5. Model-check ground truth: closure + convergence from EVERY state.
	res, err := design.Verify(nonmask.VerifyOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer res.Report.Close()
	fmt.Printf("closure ok: %v\n", res.Closure == nil)
	fmt.Printf("convergence (arbitrary daemon): %s\n", res.Unfair.Summary())
	fmt.Printf("classification: %v\n", res.Classification)

	// 6. Run it with fault injection: corrupt everything, watch recovery.
	prog := design.TolerantProgram()
	runner := &nonmask.Runner{
		P: prog, S: design.S,
		D:        nonmask.NewRoundRobin(prog),
		MaxSteps: 10_000,
		StopAtS:  true,
	}
	rng := rand.New(rand.NewSource(1))
	batch := runner.RunMany(1000, rng, nonmask.RandomStates(schema))
	steps := nonmask.Summarize(floats(batch.Steps))
	fmt.Printf("1000 corrupted starts: %d converged, steps mean %.2f max %.0f\n",
		batch.ConvergedRuns, steps.Mean, steps.Max)
}

func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
