package fourstate

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

// TestStabilizes model-checks Dijkstra's four-state algorithm exactly for
// every size up to 9 machines.
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

// TestAtLeastOnePrivilege: no state is privilege-free.
func TestAtLeastOnePrivilege(t *testing.T) {
	inst, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	schema := inst.P.Schema
	count, _ := schema.StateCount()
	for i := int64(0); i < count; i++ {
		if inst.PrivilegeCount(schema.StateAt(i)) == 0 {
			t.Fatalf("state %s has no privilege", schema.StateAt(i))
		}
	}
}

// TestCirculationProved: within S, every machine's privilege reaches every
// other machine (exact leads-to check under the arbitrary daemon).
func TestCirculationProved(t *testing.T) {
	inst, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := verify.NewSpaceContext(context.Background(), inst.P, inst.S, inst.S, verify.Options{})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	vars := inst.S.Vars
	for j := 0; j <= inst.N; j++ {
		for k := 0; k <= inst.N; k++ {
			if j == k {
				continue
			}
			j, k := j, k
			pj := program.NewPredicate("priv j", vars,
				func(st *program.State) bool { return inst.Privileged(st, j) })
			pk := program.NewPredicate("priv k", vars,
				func(st *program.State) bool { return inst.Privileged(st, k) })
			if res := sp.LeadsTo(pj, pk, false); !res.Holds {
				t.Errorf("privilege does not travel from %d to %d", j, k)
			}
		}
	}
}

// TestConvergesAtScale drives large lines statistically.
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

// TestSIsExactlyOnePrivilege checks, at every state of the N=4 array, that S
// (which stops counting at the second privileged machine) holds exactly when
// one machine is privileged, and that PrivilegeHolder names that machine.
func TestSIsExactlyOnePrivilege(t *testing.T) {
	inst, err := New(4)
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
