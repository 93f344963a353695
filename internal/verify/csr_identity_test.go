package verify_test

import (
	"context"
	"slices"
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
// advertised parameters, two multi-chunk catalog instances, and every
// testdata/*.gcl model.
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
	return models
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
