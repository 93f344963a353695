package verify_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nonmask/internal/obs"
	"nonmask/internal/program"
	"nonmask/internal/protocols/registry"
	"nonmask/internal/verify"
)

// walkTables is what the one walk produces: the flattened forward CSR
// and the S and T bitsets.
type walkTables struct {
	off      []uint32
	edges    []int32
	inS, inT []uint64
}

func walkOf(t *testing.T, m csrModel, opts verify.Options) (walkTables, bool) {
	t.Helper()
	sp, err := verify.NewSpaceContext(context.Background(), m.p, m.S, m.T, opts)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", opts.SpaceMode, opts.Workers, err)
	}
	defer sp.Close()
	var w walkTables
	w.off, w.edges = sp.ForwardCSR()
	inS, inT := sp.Membership()
	w.inS, w.inT = slices.Clone(inS), slices.Clone(inT)
	return w, opts.SpaceMode == verify.SpaceSpill && sp.SpillChunksInOrder()
}

// TestOneWalkIdenticalAcrossWorkers pins the walk's output to the worker
// count: on the full, quotient and spill tiers the flattened forward CSR
// and the S and T bitsets are byte-equal at workers 1, 2 and 4, on
// models of several chunks. On the spill tier at four workers chunks
// finish, and so land in the edge segment, out of index order; given
// more than one CPU, the test retries until it has seen that once.
func TestOneWalkIdenticalAcrossWorkers(t *testing.T) {
	ring, err := registry.Build("tokenring-ring", registry.Params{N: 5, K: 7}) // 117,649 states, 8 chunks
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]struct {
		m   csrModel
		sym *verify.Symmetry
	}{
		"footprints":         {footprintModel(), nil},
		"tokenring-ring/5/7": {csrModel{ring.Program, ring.S, ring.T}, ring.Symmetry},
	}
	for name, mc := range models {
		modes := []verify.SpaceMode{verify.SpaceFull, verify.SpaceSpill}
		if mc.sym != nil {
			modes = append(modes, verify.SpaceQuotient)
		}
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				var want walkTables
				for _, workers := range []int{1, 2, 4} {
					opts := verify.Options{Workers: workers, SpaceMode: mode, Symmetry: mc.sym}
					if mode == verify.SpaceSpill {
						opts.SpillDir = t.TempDir()
					}
					got, inOrder := walkOf(t, mc.m, opts)
					for try := 0; workers == 4 && inOrder && try < 20; try++ {
						got, inOrder = walkOf(t, mc.m, opts)
					}
					if inOrder && workers == 4 && runtime.GOMAXPROCS(0) > 1 {
						t.Errorf("workers=4: chunks always landed in index order; completion order is untested")
					}
					if workers == 1 {
						want = got
						if len(want.edges) == 0 {
							t.Fatal("the walk emitted no edges")
						}
						continue
					}
					if !slices.Equal(got.off, want.off) || !slices.Equal(got.edges, want.edges) {
						t.Errorf("workers=%d: forward CSR differs from workers=1", workers)
					}
					if !slices.Equal(got.inS, want.inS) || !slices.Equal(got.inT, want.inT) {
						t.Errorf("workers=%d: S/T bits differ from workers=1", workers)
					}
				}
			})
		}
	}
}

// TestOneWalkRefusesOverBudgetEarly pins the running budget: with room
// for the offsets but not for one chunk's edges, a forced full tier is
// refused mid-walk, having visited fewer states than the space holds,
// and the auto ladder still lands on the spill tier.
func TestOneWalkRefusesOverBudgetEarly(t *testing.T) {
	m := footprintModel() // 62,370 states, 4 chunks
	count, _ := m.p.Schema.StateCount()
	nChunks := (count + 1<<14 - 1) >> 14
	defer verify.SetSuccIndexBudget(4*(count+nChunks) + 4)()
	for _, workers := range []int{1, 2} {
		prog := &obs.Progress{}
		_, err := verify.NewSpaceContext(context.Background(), m.p, m.S, m.T,
			verify.Options{Workers: workers, SpaceMode: verify.SpaceFull, Progress: prog})
		if err == nil || !strings.Contains(err.Error(), "budget") {
			t.Fatalf("workers=%d: forced full over budget: got %v, want a refusal", workers, err)
		}
		if snap := prog.Snapshot(); snap.Pass != verify.PassSuccTable || snap.Done >= count {
			t.Errorf("workers=%d: refused after %s visited %d of %d states, want fewer", workers, snap.Pass, snap.Done, count)
		}
		sp, err := verify.NewSpaceContext(context.Background(), m.p, m.S, m.T,
			verify.Options{Workers: workers, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatalf("workers=%d: auto: %v", workers, err)
		}
		if sp.Mode() != verify.SpaceSpill {
			t.Errorf("workers=%d: auto landed on %s, want spill", workers, sp.Mode())
		}
		_ = sp.Close()
	}
}

// TestOneWalkReportsBrokenImplicationFirst pins the walk's error
// precedence: S⇒T is decided over the whole space before any footprint
// check, so a program that breaks it and also has a dishonest action
// reports the broken implication, on every tier and worker count. T
// fails at the last state alone, deep in a chunk where a dishonest body
// has already knocked the walk off its index.
func TestOneWalkReportsBrokenImplicationFirst(t *testing.T) {
	s, x := footprintSchema()
	T := program.NewPredicate("not-last", x, func(st *program.State) bool {
		return st.Get(x[0]) != 5 || st.Get(x[1]) != 6 || st.Get(x[2]) != 8 || st.Get(x[3]) != 10 || st.Get(x[4]) != 14
	})
	for a := range dishonestActions() {
		p := program.New("dishonest", s).Add(a)
		for _, mode := range []verify.SpaceMode{verify.SpaceFull, verify.SpaceSpill} {
			for _, workers := range []int{1, 4} {
				opts := verify.Options{Workers: workers, SpaceMode: mode}
				if mode == verify.SpaceSpill {
					opts.SpillDir = t.TempDir()
				}
				sp, err := verify.NewSpaceContext(context.Background(), p, program.True(), T, opts)
				if err == nil {
					_ = sp.Close()
				}
				if err == nil || !strings.Contains(err.Error(), "S does not imply T") {
					t.Errorf("%s %s workers=%d: got %v, want the broken S⇒T", a.Name, mode, workers, err)
				}
			}
		}
	}
}
