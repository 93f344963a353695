package threestate

import (
	"context"
	"math/rand"
	"testing"

	"nonmask/internal/daemon"
	"nonmask/internal/program"
	"nonmask/internal/sim"
	"nonmask/internal/verify"
)

func TestNewRejectsTiny(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("New(1) succeeded")
	}
}

// TestStabilizes model-checks Dijkstra's three-state algorithm exactly:
// from every state, under the arbitrary daemon, the array reaches exactly
// one privilege — with only 3 states per machine, for every size checked.
func TestStabilizes(t *testing.T) {
	for n := 2; n <= 8; n++ {
		inst, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		sp, err := verify.NewSpaceContext(context.Background(), inst.P, inst.S, program.True(), verify.Options{})
		if err != nil {
			t.Fatalf("NewSpace: %v", err)
		}
		if v := sp.CheckClosed(inst.S, nil); v != nil {
			t.Fatalf("N=%d: S not closed: %v", n, v)
		}
		res := sp.CheckConvergence()
		if !res.Converges {
			t.Fatalf("N=%d: not stabilizing: %s", n, res.Summary())
		}
		t.Logf("N=%d: worst %d steps, mean %.2f over %d bad states",
			n, res.WorstSteps, res.MeanSteps, res.StatesOutsideS)
	}
}

// TestAtLeastOnePrivilege: the classic base fact — no state is
// privilege-free (otherwise the system would deadlock).
func TestAtLeastOnePrivilege(t *testing.T) {
	inst, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	schema := inst.P.Schema
	count, _ := schema.StateCount()
	for i := int64(0); i < count; i++ {
		st := schema.StateAt(i)
		if inst.PrivilegeCount(st) == 0 {
			t.Fatalf("state %s has no privilege", st)
		}
	}
}

// TestPrivilegeMatchesEnabledness: a machine is privileged iff one of its
// actions is enabled — the definition Dijkstra uses.
func TestPrivilegeMatchesEnabledness(t *testing.T) {
	inst, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	schema := inst.P.Schema
	count, _ := schema.StateCount()
	// Map actions to machines by name prefix.
	machineOf := func(name string) int {
		switch name {
		case "bottom":
			return 0
		case "top":
			return inst.N
		default:
			var j int
			if _, err := fmtscan(name, &j); err != nil {
				t.Fatalf("bad action name %q", name)
			}
			return j
		}
	}
	for i := int64(0); i < count; i++ {
		st := schema.StateAt(i)
		enabled := map[int]bool{}
		for _, a := range inst.P.Actions {
			if a.Guard(st) {
				enabled[machineOf(a.Name)] = true
			}
		}
		for j := 0; j <= inst.N; j++ {
			if enabled[j] != inst.Privileged(st, j) {
				t.Fatalf("machine %d: enabled=%v privileged=%v at %s",
					j, enabled[j], inst.Privileged(st, j), st)
			}
		}
	}
}

// fmtscan extracts the number inside "up(3)" / "down(2)".
func fmtscan(s string, j *int) (int, error) {
	n, seen := 0, false
	for _, r := range s {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
			seen = true
		}
	}
	if !seen {
		return 0, errNoDigit
	}
	*j = n
	return 1, nil
}

var errNoDigit = &noDigit{}

type noDigit struct{}

func (*noDigit) Error() string { return "no digit" }

// TestTokenTravelsBothWays: in legitimate operation the privilege moves up
// the array and back down — every machine is privileged infinitely often.
func TestTokenTravelsBothWays(t *testing.T) {
	inst, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	visits := make([]int, inst.N+1)
	r := &sim.Runner{
		P: inst.P, S: inst.S,
		D:        daemon.NewRoundRobin(inst.P),
		MaxSteps: 400,
		OnStep: func(_ int, st *program.State, _ *program.Action) {
			for j := 0; j <= inst.N; j++ {
				if inst.Privileged(st, j) {
					visits[j]++
				}
			}
		},
	}
	res := r.Run(inst.AllZero(), nil)
	if res.Deadlocked {
		t.Fatalf("three-state array deadlocked: %s", res)
	}
	for j, v := range visits {
		if v < 10 {
			t.Errorf("machine %d privileged only %d times in 400 steps", j, v)
		}
	}
}

// TestConvergesAtScale drives large arrays statistically.
func TestConvergesAtScale(t *testing.T) {
	for _, n := range []int{31, 127} {
		inst, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		r := &sim.Runner{
			P: inst.P, S: inst.S,
			D:        daemon.NewRandom(7),
			MaxSteps: 5_000_000,
			StopAtS:  true,
		}
		rng := rand.New(rand.NewSource(11))
		batch := r.RunMany(20, rng, sim.RandomStates(inst.P.Schema))
		if batch.ConvergenceRate() != 1 {
			t.Fatalf("N=%d convergence rate = %.2f", n, batch.ConvergenceRate())
		}
	}
}

func TestFootprintsHonest(t *testing.T) {
	inst, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if err := inst.P.Audit(rng, 150); err != nil {
		t.Error(err)
	}
}

// TestCirculationProved: within the legitimate states, every machine's
// privilege eventually reaches every other machine (the three-state
// token travels up and down the array). Verified exactly with the
// leads-to checker under the arbitrary daemon.
func TestCirculationProved(t *testing.T) {
	inst, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := verify.NewSpaceContext(context.Background(), inst.P, inst.S, inst.S, verify.Options{})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	for j := 0; j <= inst.N; j++ {
		for k := 0; k <= inst.N; k++ {
			if j == k {
				continue
			}
			j, k := j, k
			pj := program.NewPredicate("priv j", inst.X,
				func(st *program.State) bool { return inst.Privileged(st, j) })
			pk := program.NewPredicate("priv k", inst.X,
				func(st *program.State) bool { return inst.Privileged(st, k) })
			if res := sp.LeadsTo(pj, pk, false); !res.Holds {
				t.Errorf("privilege does not travel from %d to %d", j, k)
			}
		}
	}
}

// TestSIsExactlyOnePrivilege checks, at every state of the N=5 array, that S
// (which stops counting at the second privileged machine) holds exactly when
// one machine is privileged, and that PrivilegeHolder names that machine.
func TestSIsExactlyOnePrivilege(t *testing.T) {
	inst, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	schema := inst.P.Schema
	count, _ := schema.StateCount()
	for i := int64(0); i < count; i++ {
		st := schema.StateAt(i)
		one := inst.PrivilegeCount(st) == 1
		if inst.S.Holds(st) != one {
			t.Fatalf("S.Holds(%s) = %v, PrivilegeCount = %d", st, !one, inst.PrivilegeCount(st))
		}
		if h := inst.PrivilegeHolder(st); (h >= 0) != one || (one && !inst.Privileged(st, h)) {
			t.Fatalf("PrivilegeHolder(%s) = %d, PrivilegeCount = %d", st, h, inst.PrivilegeCount(st))
		}
	}
}
