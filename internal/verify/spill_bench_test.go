// Benchmarks for the scaling ladder: the spill tier against the in-RAM
// CSR.
//
// Run with:
//
//	go test ./internal/verify -bench 'CheckMetrics(RAM|Spill)' -benchtime 3x -run '^$'
package verify_test

import (
	"context"
	"testing"

	"nonmask/internal/protocols/diffusing"
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
