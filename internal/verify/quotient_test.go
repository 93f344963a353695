package verify_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"nonmask/internal/program"
	"nonmask/internal/protocols/registry"
	"nonmask/internal/verify"
)

// TestQuotientTablesDeterministic builds the quotient of two multi-chunk
// instances under their advertised (non-identity) groups at several
// worker counts. The representative list and orbit weights must be
// identical at every worker count, and they must match a brute-force
// orbit count built from the schema's reference codec and the
// canonicalizer alone.
func TestQuotientTablesDeterministic(t *testing.T) {
	cases := []struct {
		protocol string
		params   registry.Params
	}{
		{"tokenring-ring", registry.Params{N: 5, K: 7}},      // 117,649 states, 8 chunks
		{"diffusing", registry.Params{N: 8, Tree: "binary"}}, // 65,536 states, 4 chunks
	}
	for _, tc := range cases {
		t.Run(tc.protocol, func(t *testing.T) {
			inst, err := registry.Build(tc.protocol, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			schema, sym := inst.Program.Schema, inst.Symmetry
			full, _ := schema.StateCount()

			// Reference: the orbit size of every canonical index.
			orbit := make(map[int64]uint32)
			for i := int64(0); i < full; i++ {
				st := schema.StateAt(i)
				sym.Canonicalize(st)
				orbit[schema.Index(st)]++
			}

			var wantReps []int64
			var wantWeights []uint32
			for _, workers := range []int{1, 2, 4} {
				sp, err := verify.NewSpaceContext(context.Background(), inst.Program, inst.S, inst.T,
					verify.Options{Workers: workers, SpaceMode: verify.SpaceQuotient, Symmetry: sym})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				reps, weights := sp.QuotientTables()
				if workers == 1 {
					wantReps, wantWeights = reps, weights
					if len(reps) != len(orbit) {
						t.Fatalf("%d reps, want %d orbits", len(reps), len(orbit))
					}
					var sum int64
					for q, fi := range reps {
						if q > 0 && reps[q-1] >= fi {
							t.Fatalf("reps not strictly ascending at %d: %d then %d", q, reps[q-1], fi)
						}
						st := schema.StateAt(fi)
						sym.Canonicalize(st)
						if schema.Index(st) != fi {
							t.Fatalf("rep %d (%s) is not canonical", fi, schema.StateAt(fi))
						}
						if weights[q] != orbit[fi] {
							t.Fatalf("rep %d has weight %d, brute-force orbit size %d", fi, weights[q], orbit[fi])
						}
						sum += int64(weights[q])
					}
					if sum != sp.FullCount || sum != full {
						t.Fatalf("weights sum to %d, want FullCount %d", sum, sp.FullCount)
					}
					continue
				}
				if !slices.Equal(reps, wantReps) {
					t.Fatalf("workers=%d: reps differ from workers=1", workers)
				}
				if !slices.Equal(weights, wantWeights) {
					t.Fatalf("workers=%d: weights differ from workers=1", workers)
				}
			}
		})
	}
}

// TestQuotientRefusesNonIdempotentSymmetry supplies a canonicalizer that
// is not idempotent (canon(x) = min(x+1, 3)): the quotient build must
// refuse with an error naming the symmetry, never return a verdict.
func TestQuotientRefusesNonIdempotentSymmetry(t *testing.T) {
	s := program.NewSchema()
	x := s.MustDeclare("x", program.IntRange(0, 3))
	p := program.New("climb", s)
	p.Add(program.NewAction("up", program.Convergence,
		[]program.VarID{x}, []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) < 3 },
		func(st *program.State) { st.Set(x, st.Get(x)+1) }))
	S := program.NewPredicate("x=3", []program.VarID{x},
		func(st *program.State) bool { return st.Get(x) == 3 })
	sym := &verify.Symmetry{Name: "shift-up", Canonicalize: func(st *program.State) {
		st.Set(x, min(st.Get(x)+1, 3))
	}}
	for _, workers := range []int{1, 2} {
		rep, err := verify.Check(context.Background(), p, S, nil, verify.WithWorkers(workers),
			verify.WithSpaceMode(verify.SpaceQuotient), verify.WithSymmetry(sym))
		if err == nil {
			t.Fatalf("workers=%d: non-idempotent symmetry produced a verdict: tolerant=%v", workers, rep.Tolerant())
		}
		if !strings.Contains(err.Error(), `symmetry "shift-up" is not idempotent`) {
			t.Fatalf("workers=%d: want an idempotence refusal naming the symmetry, got %v", workers, err)
		}
	}
}
