package verify_test

import (
	"context"
	"os"
	"reflect"
	"testing"

	"nonmask/internal/program"
	"nonmask/internal/protocols/registry"
	"nonmask/internal/verify"
)

// TestSuccCursorAgreesWithGraph drives the exported schedule-constrained
// iteration over every state of a catalog instance, on the in-RAM CSR and
// on the spill tier the auto ladder escalates to, and requires identical
// (action, successor) sequences — and that each reported edge is what the
// action's own guard/apply semantics produce.
func TestSuccCursorAgreesWithGraph(t *testing.T) {
	inst, err := registry.Build("tokenring-ring", registry.Params{N: 3, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	type edge struct {
		name string
		j    int64
	}
	collect := func(sp *verify.Space) [][]edge {
		out := make([][]edge, sp.Count)
		cur := sp.NewSuccCursor()
		for i := int64(0); i < sp.Count; i++ {
			cur.ForEach(i, func(a *program.Action, j int64) bool {
				out[i] = append(out[i], edge{a.Name, j})
				return true
			})
		}
		return out
	}
	verifyEdges := func(sp *verify.Space, edges [][]edge) {
		for i := int64(0); i < sp.Count; i++ {
			st := sp.State(i)
			n := 0
			for _, a := range sp.P.Actions {
				if !a.Guard(st) {
					continue
				}
				want := sp.P.Schema.Index(a.Apply(st))
				if n >= len(edges[i]) || edges[i][n].name != a.Name || edges[i][n].j != want {
					t.Fatalf("state %d edge %d: got %v, want (%s, %d)", i, n, edges[i], a.Name, want)
				}
				n++
			}
			if n != len(edges[i]) {
				t.Fatalf("state %d: cursor reported %d edges, guards enable %d", i, len(edges[i]), n)
			}
		}
	}

	ctx := context.Background()
	sp, err := verify.NewSpaceContext(ctx, inst.Program, inst.S, program.True(), verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Mode() != verify.SpaceFull {
		t.Fatalf("baseline space on %v, want full", sp.Mode())
	}
	csr := collect(sp)
	verifyEdges(sp, csr)

	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	restore := verify.SetSuccIndexBudget(1)
	defer restore()
	spill, err := verify.NewSpaceContext(ctx, inst.Program, inst.S, program.True(), verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if spill.Mode() != verify.SpaceSpill {
		t.Fatalf("auto over budget landed on %v, want spill", spill.Mode())
	}
	if got := collect(spill); !reflect.DeepEqual(csr, got) {
		t.Fatal("cursor edges on the spill tier differ from the in-RAM CSR")
	}
	if err := spill.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("spill dir after Close: %v entries, err %v", len(ents), err)
	}

	// ForEach must stop when fn returns false.
	stops := 0
	sp.NewSuccCursor().ForEach(0, func(*program.Action, int64) bool {
		stops++
		return false
	})
	if stops > 1 {
		t.Fatalf("ForEach continued %d edges past a false return", stops)
	}
}
