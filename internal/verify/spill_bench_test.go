// Benchmarks for the scaling ladder: the spill tier against the in-RAM
// CSR, and the density-adaptive reverse-CSR build against its two fixed
// strategies.
//
// Run with:
//
//	go test ./internal/verify -bench 'Spill|PredBuild' -benchtime 3x -run '^$'
package verify_test

import (
	"context"
	"testing"

	"nonmask/internal/protocols/diffusing"
	"nonmask/internal/protocols/tokenring"
	"nonmask/internal/verify"
)

// benchCheckMetrics1M runs the full metrics suite on the 1M-state
// diffusing instance. Metrics is the representative beyond-RAM workload:
// the distance, worst-step and expected-step passes each re-stream the
// transition graph from wherever the CSR lives.
func benchCheckMetrics1M(b *testing.B, options ...verify.Option) {
	inst, err := diffusing.New(diffusing.Binary(10))
	if err != nil {
		b.Fatal(err)
	}
	d := inst.Design
	ctx := context.Background()
	opts := append([]verify.Option{verify.WithMetrics()}, options...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := verify.Check(ctx, d.TolerantProgram(), d.S, d.T, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Metrics == nil || !rep.Metrics.WorstMeasured {
			b.Fatal("benchmark needs the full metrics suite")
		}
		if err := rep.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckMetricsRAM is the in-RAM CSR baseline.
func BenchmarkCheckMetricsRAM(b *testing.B) { benchCheckMetrics1M(b) }

// BenchmarkCheckMetricsSpill runs the same workload with the CSR in
// mmap'd segment files — the tier every instance beyond the 2 GiB budget
// escalates to.
func BenchmarkCheckMetricsSpill(b *testing.B) {
	benchCheckMetrics1M(b,
		verify.WithSpaceMode(verify.SpaceSpill), verify.WithSpillDir(b.TempDir()))
}

// benchPredBuild times the end-to-end Check on the guard-dense printed
// mod-K ring (~6.3 enabled actions per state out of 8) with a pinned
// reverse-CSR strategy. The convergence wave consumes the reverse index,
// so the build cost is on the critical path.
func benchPredBuild(b *testing.B, builder int) {
	defer verify.SetPredBuilder(builder)()
	inst, err := tokenring.NewRing(7, 7)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := verify.Check(ctx, inst.P, inst.S, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Unfair.Converges {
			b.Fatal("ring must converge")
		}
	}
}

// BenchmarkPredBuildAdaptive is the shipping configuration: counting
// sort below predScatterDensity, atomic scatter above it.
func BenchmarkPredBuildAdaptive(b *testing.B) { benchPredBuild(b, 0) }

// BenchmarkPredBuildCounting pins the partitioned counting sort — the
// sparse-instance winner, ~10% slower single-core on dense guards.
func BenchmarkPredBuildCounting(b *testing.B) { benchPredBuild(b, 1) }

// BenchmarkPredBuildScatter pins the atomic-scatter build the adaptive
// policy picks on this dense instance.
func BenchmarkPredBuildScatter(b *testing.B) { benchPredBuild(b, 2) }
