package main

import (
	"fmt"
	"math"

	"nonmask/internal/service"
)

// The oracle: expected verdict and full-product state count for every
// instance family the generators emit. Nothing here runs the checker.
// Verdicts come from the paper and the classic results it builds on;
// state counts are the product of the declared variable domains.
//
//   - tokenring-ring(N, K): Dijkstra's K-state ring on N+1 machines,
//     one counter in 0..K-1 each → K^(N+1) states. It stabilizes iff
//     K ≥ (machines − 1) = N; below that a livelock exists under every
//     daemon, so the verdict is "violated".
//   - tokenring-path(N, K): the layered path design (Section 5) on N+1
//     nodes → K^(N+1) states; valid by Theorem 3, "satisfied".
//   - threestate(N): Dijkstra's three-state machines on N+1 nodes →
//     3^(N+1); stabilizing, "satisfied".
//   - fourstate(N): N+1 boolean x plus N−1 boolean up (the ends' up is
//     fixed) → 2^(2N); stabilizing, "satisfied".
//   - diffusing(n, tree): colour (2) × session bit (2) per node → 4^n;
//     the Section 5.1 design, "satisfied" on every tree.
//   - termination(n, tree): colour, session bit and activity bit → 8^n;
//     "satisfied".
//   - xyz: x, y, z in 0..4 → 125 states (ordered: y in 1..4 → 100). The
//     out-tree and ordered designs are valid (Theorems 1 and 2); the
//     interfering design, where both convergence actions write x, has the
//     livelock x=y=z → x+1 → x=z and is "violated".
//   - GCL sources (gclTokenPath, gclDiffusing, gclXYZ below) are the same
//     designs written in the paper's notation, with their own domains.

// expect is what the oracle predicts for one submission.
type expect struct {
	Verdict string
	States  int64
}

func ipow(base, exp int) int64 {
	v := int64(1)
	for i := 0; i < exp; i++ {
		if v > math.MaxInt64/int64(base) {
			panic(fmt.Sprintf("oracle: %d^%d overflows", base, exp))
		}
		v *= int64(base)
	}
	return v
}

func verdictIf(ok bool) string {
	if ok {
		return service.VerdictSatisfied
	}
	return service.VerdictViolated
}

// catalogOracle predicts a catalog job from its protocol and parameters.
func catalogOracle(spec service.JobSpec) (expect, error) {
	p := spec.Params
	switch spec.Protocol {
	case "tokenring-ring":
		return expect{verdictIf(p.K >= p.N), ipow(p.K, p.N+1)}, nil
	case "tokenring-path":
		return expect{service.VerdictSatisfied, ipow(p.K, p.N+1)}, nil
	case "threestate":
		return expect{service.VerdictSatisfied, ipow(3, p.N+1)}, nil
	case "fourstate":
		return expect{service.VerdictSatisfied, ipow(2, 2*p.N)}, nil
	case "diffusing":
		return expect{service.VerdictSatisfied, ipow(4, p.N)}, nil
	case "termination":
		return expect{service.VerdictSatisfied, ipow(8, p.N)}, nil
	case "xyz":
		switch p.Variant {
		case "out-tree":
			return expect{service.VerdictSatisfied, 125}, nil
		case "ordered":
			return expect{service.VerdictSatisfied, 100}, nil
		case "interfering":
			return expect{service.VerdictViolated, 125}, nil
		}
	}
	return expect{}, fmt.Errorf("oracle: no entry for %s %+v", spec.Protocol, p)
}

// check compares a terminal job status against the oracle. It returns
// nil when the job is done with the predicted verdict and full-product
// state count.
func check(want expect, st service.JobStatus) error {
	if st.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	r := st.Result
	if r == nil {
		return fmt.Errorf("job %s done without a result", st.ID)
	}
	states := r.States
	if r.FullStates != 0 {
		states = r.FullStates
	}
	if r.Verdict != want.Verdict || states != want.States {
		return fmt.Errorf("job %s (%s): got %s over %d states, oracle says %s over %d",
			st.ID, r.Program, r.Verdict, states, want.Verdict, want.States)
	}
	return nil
}
