package registry

import (
	"context"
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"nonmask/internal/program"
	"nonmask/internal/verify"
)

// advertisingCases lists small instances of every catalog family that
// advertises a symmetry group, sized so ValidateSymmetry's exhaustive
// successor-multiset check stays fast.
var advertisingCases = []struct {
	protocol string
	params   Params
}{
	{"tokenring-ring", Params{N: 3, K: 4}},
	{"tokenring-ring", Params{N: 4, K: 3}},
	{"diffusing", Params{N: 4, Tree: "star"}},
	{"diffusing", Params{N: 5, Tree: "binary"}},
	{"reset", Params{N: 3, Tree: "star"}},
	{"termination", Params{N: 4, Tree: "star"}},
	{"snapshot", Params{N: 3, Tree: "star"}},
}

// instancePreds gathers the predicates the advertised group must preserve:
// S, T and the stair chain. The per-constraint decomposition is
// deliberately NOT included — see Instance.Symmetry and
// TestConstraintDecompositionNotSymmetric.
func instancePreds(inst *Instance) []*program.Predicate {
	preds := []*program.Predicate{inst.S, inst.T}
	return append(preds, inst.Stair...)
}

// TestSymmetryAdvertisementsValid discharges the soundness obligation of
// every advertised group: exhaustive idempotence, predicate-invariance and
// successor-multiset checks on small instances of each advertising family.
func TestSymmetryAdvertisementsValid(t *testing.T) {
	for _, tc := range advertisingCases {
		tc := tc
		t.Run(tc.protocol+"/"+tc.params.String(), func(t *testing.T) {
			t.Parallel()
			inst, err := Build(tc.protocol, tc.params)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if inst.Symmetry == nil {
				t.Fatalf("%s %s advertises no symmetry", tc.protocol, tc.params)
			}
			if err := verify.ValidateSymmetry(context.Background(), inst.Program, inst.Symmetry, instancePreds(inst)...); err != nil {
				t.Fatalf("advertised symmetry %q is unsound: %v", inst.Symmetry.Name, err)
			}
		})
	}
}

// TestNoSymmetryWhereNoneExists pins the families and shapes that must NOT
// advertise: the path token ring (saturating increment does not commute
// with rotation) and chain trees (no isomorphic sibling subtrees).
func TestNoSymmetryWhereNoneExists(t *testing.T) {
	cases := []struct {
		protocol string
		params   Params
	}{
		{"tokenring-path", Params{N: 3, K: 4}},
		{"diffusing", Params{N: 4, Tree: "chain"}},
		{"reset", Params{N: 3, Tree: "chain"}},
		{"threestate", Params{N: 4}},
	}
	for _, tc := range cases {
		inst, err := Build(tc.protocol, tc.params)
		if err != nil {
			t.Fatalf("Build(%s): %v", tc.protocol, err)
		}
		if inst.Symmetry != nil {
			t.Errorf("%s %s advertises %q; want none", tc.protocol, tc.params, inst.Symmetry.Name)
		}
	}
}

// TestConstraintDecompositionNotSymmetric pins the documented boundary of
// the tree advertisement: the layered designs' per-constraint predicates
// are node-indexed, so the subtree exchange permutes them among each other
// instead of preserving each pointwise. ValidateSymmetry must therefore
// reject them — which is exactly why per-constraint recovery costs run on
// the full space (see Instance.Symmetry).
func TestConstraintDecompositionNotSymmetric(t *testing.T) {
	inst, err := Build("diffusing", Params{N: 4, Tree: "star"})
	if err != nil {
		t.Fatal(err)
	}
	specs := ConstraintSpecs(inst)
	if len(specs) == 0 {
		t.Fatal("diffusing advertises no constraint decomposition")
	}
	preds := make([]*program.Predicate, 0, len(specs))
	for _, s := range specs {
		preds = append(preds, s.Pred)
	}
	if err := verify.ValidateSymmetry(context.Background(), inst.Program, inst.Symmetry, preds...); err == nil {
		t.Fatal("per-constraint predicates validated as symmetric; the full-space requirement for constraint costs would be obsolete")
	}
}

// TestQuotientMatchesFull is the metamorphic core of the symmetry tier:
// checking an advertising instance on the quotient must reproduce the full
// product's verdict and weighted metrics (exact for counts, 1e-9 relative
// for value-iteration floats), at a strictly smaller representative count.
func TestQuotientMatchesFull(t *testing.T) {
	cases := []struct {
		protocol string
		params   Params
	}{
		{"tokenring-ring", Params{N: 3, K: 5}},
		{"diffusing", Params{N: 5, Tree: "binary"}},
		{"termination", Params{N: 4, Tree: "star"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.protocol+"/"+tc.params.String(), func(t *testing.T) {
			t.Parallel()
			inst, err := Build(tc.protocol, tc.params)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			// No constraint specs: the per-constraint decomposition is not
			// quotient-safe (TestConstraintDecompositionNotSymmetric).
			ctx := context.Background()
			full, err := verify.Check(ctx, inst.Program, inst.S, inst.T,
				verify.WithMetrics(), verify.WithSpaceMode(verify.SpaceFull))
			if err != nil {
				t.Fatalf("full check: %v", err)
			}
			quot, err := verify.Check(ctx, inst.Program, inst.S, inst.T,
				verify.WithMetrics(),
				verify.WithSpaceMode(verify.SpaceQuotient), verify.WithSymmetry(inst.Symmetry))
			if err != nil {
				t.Fatalf("quotient check: %v", err)
			}
			reps, _ := quot.Space.QuotientStats()
			if reps == 0 || reps >= full.Space.Count {
				t.Fatalf("quotient did not reduce: %d reps of %d states", reps, full.Space.Count)
			}
			if quot.Space.CountS() != full.Space.CountS() || quot.Space.CountT() != full.Space.CountT() {
				t.Fatalf("weighted |S|/|T| differ: quotient %d/%d, full %d/%d",
					quot.Space.CountS(), quot.Space.CountT(), full.Space.CountS(), full.Space.CountT())
			}
			if quot.Tolerant() != full.Tolerant() || quot.Classification != full.Classification {
				t.Fatalf("verdicts differ: quotient (%v, %s), full (%v, %s)",
					quot.Tolerant(), quot.Classification, full.Tolerant(), full.Classification)
			}
			fm, qm := full.Metrics, quot.Metrics
			if len(fm.Profile) != len(qm.Profile) {
				t.Fatalf("profile lengths differ: %v vs %v", fm.Profile, qm.Profile)
			}
			for d := range fm.Profile {
				if fm.Profile[d] != qm.Profile[d] {
					t.Fatalf("profile[%d]: full %d, quotient %d", d, fm.Profile[d], qm.Profile[d])
				}
			}
			if fm.MaxDistance != qm.MaxDistance || fm.UnreachableStates != qm.UnreachableStates ||
				fm.WorstMeasured != qm.WorstMeasured || fm.WorstSteps != qm.WorstSteps ||
				fm.ExpectedMeasured != qm.ExpectedMeasured {
				t.Fatalf("discrete metrics differ:\nfull:     %+v\nquotient: %+v", fm, qm)
			}
			for _, f := range []struct {
				name   string
				fv, qv float64
				relEps float64
			}{
				{"MeanDistance", fm.MeanDistance, qm.MeanDistance, 0},
				{"MeanWorstSteps", fm.MeanWorstSteps, qm.MeanWorstSteps, 0},
				{"ExpectedSteps", fm.ExpectedSteps, qm.ExpectedSteps, 1e-9},
				{"MeanExpectedSteps", fm.MeanExpectedSteps, qm.MeanExpectedSteps, 1e-9},
			} {
				if f.relEps == 0 {
					// Integer-weighted ratios: bit-identical by construction.
					if f.fv != f.qv {
						t.Errorf("%s: full %v, quotient %v", f.name, f.fv, f.qv)
					}
					continue
				}
				if diff := math.Abs(f.fv - f.qv); diff > f.relEps*math.Max(1, math.Abs(f.fv)) {
					t.Errorf("%s: full %v, quotient %v (diff %g)", f.name, f.fv, f.qv, diff)
				}
			}
		})
	}
}

// TestRingQuotientFactor pins the exact orbit structure of the ring's value
// rotation: every orbit has K members, so the quotient has K^N
// representatives of the full K^(N+1) states.
func TestRingQuotientFactor(t *testing.T) {
	inst, err := Build("tokenring-ring", Params{N: 3, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Check(context.Background(), inst.Program, inst.S, inst.T,
		verify.WithSpaceMode(verify.SpaceQuotient), verify.WithSymmetry(inst.Symmetry))
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := rep.Space.QuotientStats()
	want := int64(6 * 6 * 6) // K^N
	if reps != want {
		t.Fatalf("rotation quotient has %d reps; want %d", reps, want)
	}
	if rep.Space.FullCount != 6*want {
		t.Fatalf("full count %d; want %d", rep.Space.FullCount, 6*want)
	}
}

// TestTreeCanonicalizeAllocsNothing pins the tree canonicalizer's hot
// path: it runs once per full-product state in the quotient sweeps and
// once per successor in the quotient walk, so its sibling-class slots
// are fixed at construction and its sort works in the pooled scratch.
func TestTreeCanonicalizeAllocsNothing(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("under -race sync.Pool drops a quarter of its Puts, so the pool allocates")
	}
	inst, err := Build("diffusing", Params{N: 8, Tree: "binary"})
	if err != nil {
		t.Fatal(err)
	}
	schema := inst.Program.Schema
	count, _ := schema.StateCount()
	codec, st := program.NewCodec(schema), schema.NewScratchState()
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		codec.Decode(i%count, st)
		i += 7919
		inst.Symmetry.Canonicalize(st)
	})
	if allocs != 0 {
		t.Fatalf("Canonicalize allocates %v times per call, want 0", allocs)
	}
}
