package experiments

import (
	"context"
	"fmt"

	"nonmask/internal/metrics"
	"nonmask/internal/protocols/fourstate"
	"nonmask/internal/protocols/threestate"
	"nonmask/internal/protocols/tokenring"
	"nonmask/internal/verify"
)

func init() {
	register(&Experiment{
		ID:       "X3",
		Title:    "Extension: all three Dijkstra algorithms of citation [9]",
		PaperRef: "Section 7.1's citation [9] (Dijkstra 1974)",
		Run:      runX3,
	})
}

// runX3 contrasts the three token algorithms of the paper's citation [9]:
// the K-state ring (Section 7.1; state space grows with ring size), the
// four-state machines, and the three-state machines (constant state per
// machine). All are model-checked exactly.
func runX3() (*metrics.Table, error) {
	t := metrics.NewTable("X3: Dijkstra's K-state, four-state and three-state machines (exact)",
		"algorithm", "machines", "states/machine", "total states", "stabilizes", "worst steps", "mean steps")
	for n := 2; n <= 6; n++ {
		ring, err := tokenring.NewRing(n, n+1)
		if err != nil {
			return nil, err
		}
		rep, err := verify.Check(context.Background(), ring.P, ring.S, nil)
		if err != nil {
			return nil, err
		}
		res := rep.Unfair
		t.AddRow("K-state ring", fmt.Sprintf("%d", n+1), fmt.Sprintf("%d", n+1),
			fmt.Sprintf("%d", rep.Space.Count), verdict(res.Converges),
			fmt.Sprintf("%d", res.WorstSteps), fmt.Sprintf("%.2f", res.MeanSteps))
		rep.Close()
	}
	for n := 2; n <= 8; n++ {
		arr, err := fourstate.New(n)
		if err != nil {
			return nil, err
		}
		rep, err := verify.Check(context.Background(), arr.P, arr.S, nil)
		if err != nil {
			return nil, err
		}
		res := rep.Unfair
		t.AddRow("four-state", fmt.Sprintf("%d", n+1), "4 (2 at ends)",
			fmt.Sprintf("%d", rep.Space.Count), verdict(res.Converges),
			fmt.Sprintf("%d", res.WorstSteps), fmt.Sprintf("%.2f", res.MeanSteps))
		rep.Close()
	}
	for n := 2; n <= 8; n++ {
		arr, err := threestate.New(n)
		if err != nil {
			return nil, err
		}
		rep, err := verify.Check(context.Background(), arr.P, arr.S, nil)
		if err != nil {
			return nil, err
		}
		res := rep.Unfair
		t.AddRow("three-state", fmt.Sprintf("%d", n+1), "3",
			fmt.Sprintf("%d", rep.Space.Count), verdict(res.Converges),
			fmt.Sprintf("%d", res.WorstSteps), fmt.Sprintf("%.2f", res.MeanSteps))
		rep.Close()
	}
	t.Note("all three algorithms are from the paper's citation [9]; the bidirectional")
	t.Note("forms trade token travel up and down the line for constant per-machine state")
	return t, nil
}
