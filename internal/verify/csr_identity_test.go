package verify_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"nonmask/internal/program"
	"nonmask/internal/protocols/registry"
	"nonmask/internal/verify"
)

// referenceCSR builds the forward CSR of p by the schema's reference
// codec alone: StateAt for every state in ascending order, Apply for
// every enabled action in declaration order, Index for every successor.
// It shares nothing with the engine's sweeps.
func referenceCSR(p *program.Program) (offsets []uint32, edges []int32) {
	count, _ := p.Schema.StateCount()
	offsets = make([]uint32, 0, count+1)
	for i := int64(0); i < count; i++ {
		offsets = append(offsets, uint32(len(edges)))
		st := p.Schema.StateAt(i)
		for _, a := range p.Actions {
			if a.Guard(st) {
				edges = append(edges, int32(p.Schema.Index(a.Apply(st))))
			}
		}
	}
	return append(offsets, uint32(len(edges))), edges
}

// csrModel is one program under test with its checkable triple.
type csrModel struct {
	p    *program.Program
	S, T *program.Predicate
}

// csrModels returns every registry catalog entry at its smallest
// advertised parameters, two multi-chunk catalog instances, the synthetic
// footprint model, and every testdata/*.gcl model.
func csrModels(t *testing.T) map[string]csrModel {
	t.Helper()
	models := make(map[string]csrModel)
	for _, e := range registry.Entries() {
		var p registry.Params
		if e.Bounds.N != nil {
			p.N = e.Bounds.N.Min
		}
		if e.Bounds.K != nil {
			p.K = e.Bounds.K.Min
		}
		p, err := registry.Normalize(e.Name, p)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		inst, err := registry.Build(e.Name, p)
		if err != nil {
			t.Fatalf("%s %s: %v", e.Name, p, err)
		}
		models["registry/"+e.Name] = csrModel{inst.Program, inst.S, inst.T}
	}
	// The smallest instances fit in one sweep chunk; these two span
	// several, so chunk starts and worker interleaving are covered too.
	for _, b := range []struct {
		name string
		p    registry.Params
	}{
		{"tokenring-ring", registry.Params{N: 5, K: 7}},
		{"threestate", registry.Params{N: 9}},
	} {
		inst, err := registry.Build(b.name, b.p)
		if err != nil {
			t.Fatalf("%s %s: %v", b.name, b.p, err)
		}
		models["registry/"+b.name+" "+b.p.String()] = csrModel{inst.Program, inst.S, inst.T}
	}
	for name, m := range gclModels(t) {
		models["gcl/"+name] = csrModel{m.Program, m.S, m.T}
	}
	models["synthetic/footprints"] = footprintModel()
	return models
}

// footprintSchema is the schema of the synthetic footprint models:
// 6·7·9·11·15 = 62,370 states, four sweep chunks whose boundaries fall
// inside every variable's digit.
func footprintSchema() (*program.Schema, []program.VarID) {
	s := program.NewSchema()
	var x []program.VarID
	for v, hi := range []int32{5, 6, 8, 10, 14} {
		x = append(x, s.MustDeclare(fmt.Sprintf("x%d", v), program.IntRange(0, hi)))
	}
	return s, x
}

// footprintModel is an honest program over footprintSchema with the
// cases the sweeps' successor memo and write-local encoder special-case:
// an action with no reads, one that reads only variable 0 (its guard
// changes every 10,395 states, never at a chunk boundary), a three-write
// parallel assignment with a write it never reads, one that reads the
// last variable, and one that reads only variable 0 but writes variable
// 3 without reading it, so a successor delta re-encoded on changes to
// its Reads alone would go stale whenever variable 3 steps.
func footprintModel() csrModel {
	s, x := footprintSchema()
	ids := func(v ...program.VarID) []program.VarID { return v }
	p := program.New("footprints", s).Add(
		program.NewAction("settle", program.Closure, nil, ids(x[2]),
			func(*program.State) bool { return true },
			func(st *program.State) { st.Set(x[2], 4) }),
		program.NewAction("low", program.Convergence, ids(x[0]), ids(x[0]),
			func(st *program.State) bool { return st.Get(x[0])%2 == 0 },
			func(st *program.State) { st.Set(x[0], st.Get(x[0])+1) }),
		program.NewAction("swap", program.Convergence, ids(x[1], x[3]), ids(x[1], x[3], x[4]),
			func(st *program.State) bool { return st.Get(x[1]) < st.Get(x[3]) && st.Get(x[3]) <= 6 },
			func(st *program.State) {
				a, b := st.Get(x[1]), st.Get(x[3])
				st.Set(x[1], b)
				st.Set(x[3], a)
				st.Set(x[4], (a+b)%15)
			}),
		program.NewAction("drain", program.Convergence, ids(x[2], x[4]), ids(x[4]),
			func(st *program.State) bool { return st.Get(x[4]) > st.Get(x[2]) },
			func(st *program.State) { st.Set(x[4], st.Get(x[4])-1) }),
		program.NewAction("copy", program.Convergence, ids(x[0]), ids(x[3]),
			func(st *program.State) bool { return st.Get(x[0]) != 1 },
			func(st *program.State) { st.Set(x[3], st.Get(x[0])) }),
	)
	S := program.NewPredicate("odd", ids(x[0]), func(st *program.State) bool { return st.Get(x[0])%2 == 1 })
	return csrModel{p, S, program.True()}
}

// TestForwardCSRMatchesReferenceEncoder pins the engine's forward CSR —
// offsets and edges, byte for byte — to the reference encoder, on the
// full and spill tiers at one and four workers. The metamorphic suites
// compare verdicts only, and every tier they compare shares the engine's
// codec; this comparison does not.
func TestForwardCSRMatchesReferenceEncoder(t *testing.T) {
	ctx := context.Background()
	for name, m := range csrModels(t) {
		t.Run(name, func(t *testing.T) {
			wantOff, wantEdges := referenceCSR(m.p)
			for _, mode := range []verify.SpaceMode{verify.SpaceFull, verify.SpaceSpill} {
				for _, workers := range []int{1, 4} {
					opts := verify.Options{Workers: workers, SpaceMode: mode}
					if mode == verify.SpaceSpill {
						opts.SpillDir = t.TempDir()
					}
					sp, err := verify.NewSpaceContext(ctx, m.p, m.S, m.T, opts)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", mode, workers, err)
					}
					off, edges := sp.ForwardCSR()
					if off == nil {
						t.Fatalf("%s workers=%d: no CSR built", mode, workers)
					}
					if !slices.Equal(off, wantOff) {
						t.Errorf("%s workers=%d: CSR offsets differ from the reference", mode, workers)
					}
					if !slices.Equal(edges, wantEdges) {
						t.Errorf("%s workers=%d: CSR edges differ from the reference", mode, workers)
					}
					if err := sp.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// dishonestActions returns three actions over footprintSchema whose
// footprints lie, each with the declared set it lies about: a body that
// writes a variable outside Writes, a guard that reads one outside
// Reads, and a body that reads one outside Reads behind an honest guard.
// Both undeclared reads are of the last variable, after the declared
// ones, so the sweeps' successor memo never re-evaluates the guard or
// re-encodes the successor for that variable's changes.
func dishonestActions() map[*program.Action]string {
	_, x := footprintSchema()
	ids := func(v ...program.VarID) []program.VarID { return v }
	return map[*program.Action]string{
		program.NewAction("leak", program.Convergence, ids(x[1], x[2]), ids(x[1]),
			func(st *program.State) bool { return st.Get(x[1]) < 6 },
			func(st *program.State) {
				st.Set(x[1], st.Get(x[1])+1)
				st.Set(x[2], (st.Get(x[2])+1)%9)
			}): "Writes",
		program.NewAction("peek", program.Convergence, ids(x[0]), ids(x[0]),
			func(st *program.State) bool { return st.Get(x[0]) < 5 && st.Get(x[4])%2 == 0 },
			func(st *program.State) { st.Set(x[0], st.Get(x[0])+1) }): "Reads",
		program.NewAction("skim", program.Convergence, ids(x[0]), ids(x[0]),
			func(st *program.State) bool { return st.Get(x[0]) < 4 },
			func(st *program.State) { st.Set(x[0], st.Get(x[0])+1+st.Get(x[4])%2) }): "Reads",
	}
}

// TestNewSpaceRefusesDishonestFootprints checks that every dishonest
// action is refused on every tier and worker count, with an error
// naming the action and the declared set it lies about, rather than
// yielding a wrong CSR.
func TestNewSpaceRefusesDishonestFootprints(t *testing.T) {
	s, _ := footprintSchema()
	for a, lies := range dishonestActions() {
		t.Run(a.Name, func(t *testing.T) {
			p := program.New("dishonest", s).Add(a)
			for _, mode := range []verify.SpaceMode{verify.SpaceFull, verify.SpaceSpill} {
				for _, workers := range []int{1, 4} {
					opts := verify.Options{Workers: workers, SpaceMode: mode}
					if mode == verify.SpaceSpill {
						opts.SpillDir = t.TempDir()
					}
					sp, err := verify.NewSpaceContext(context.Background(), p, program.True(), program.True(), opts)
					if err == nil {
						_ = sp.Close()
						t.Fatalf("%s workers=%d: dishonest footprint accepted", mode, workers)
					}
					if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%q", a.Name)) || !strings.Contains(msg, lies) {
						t.Errorf("%s workers=%d: error %q does not name action %q and its %s", mode, workers, msg, a.Name, lies)
					}
				}
			}
		})
	}
}
