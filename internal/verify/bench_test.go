// Benchmarks for the tentpole rebuild: packed bitsets, precomputed
// successor tables, and sharded passes. The headline numbers are
// the Workers=1 vs Workers=4 convergence benchmark on a >=1<<20-state
// instance and the end-to-end Check on an instance above the old 1<<22
// enumeration ceiling.
//
// Run with:
//
//	go test ./internal/verify -bench . -benchtime 3x -run '^$'
package verify_test

import (
	"context"
	"testing"

	"nonmask/internal/obs"
	"nonmask/internal/protocols/diffusing"
	"nonmask/internal/protocols/tokenring"
	"nonmask/internal/verify"
)

// benchConvergence checks the diffusing design on a 10-node binary tree:
// 4 states per node (2 colors x 2 session numbers), 4^10 = 1,048,576
// states — at least 1<<20, the scale the speedup claim is made at.
func benchConvergence(b *testing.B, workers int) {
	inst, err := diffusing.New(diffusing.Binary(10))
	if err != nil {
		b.Fatal(err)
	}
	d := inst.Design
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := verify.Check(ctx, d.TolerantProgram(), d.S, d.T,
			verify.WithWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Space.Count < 1<<20 {
			b.Fatalf("benchmark instance too small: %d states", rep.Space.Count)
		}
		if !rep.Unfair.Converges {
			b.Fatal("benchmark instance must converge")
		}
	}
}

// BenchmarkConvergenceWorkers1 is the sequential baseline on 1<<20 states.
func BenchmarkConvergenceWorkers1(b *testing.B) { benchConvergence(b, 1) }

// BenchmarkConvergenceWorkers4 is the sharded run the speedup claim
// compares against BenchmarkConvergenceWorkers1 (compare with
// benchstat or the ns/op ratio; the ratio requires >= 4 CPUs to show).
// Enumeration, the successor index, the closure scans and the verdict's
// border sweeps shard; its longest-path DFS is sequential at every
// worker count, so the ratio bounds what the sharded passes buy.
func BenchmarkConvergenceWorkers4(b *testing.B) { benchConvergence(b, 4) }

// BenchmarkCheckAboveOldCeiling runs the full pipeline — enumeration,
// successor table, closure, convergence — on Dijkstra's 8-node K=7 ring:
// 7^8 = 5,764,801 states, beyond the seed checker's 1<<22 cap.
func BenchmarkCheckAboveOldCeiling(b *testing.B) {
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
			b.Fatal("K-state ring with K >= nodes-1 must converge")
		}
	}
}

// benchCheckTraced is the overhead guard for the observability layer: the
// same 1<<20-state end-to-end Check with and without an (explicitly no-op)
// tracer and progress counter. The contract is that the traced run stays
// within 5% of the untraced one — the hot loops pay one nil-check per
// ~16k-state chunk and each pass a couple of time.Now calls. Compare:
//
//	go test ./internal/verify -bench 'CheckTracerOverhead' -benchtime 5x -run '^$'
func benchCheckTraced(b *testing.B, options ...verify.Option) {
	inst, err := diffusing.New(diffusing.Binary(10))
	if err != nil {
		b.Fatal(err)
	}
	d := inst.Design
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := verify.Check(ctx, d.TolerantProgram(), d.S, d.T, options...)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Space.Count < 1<<20 {
			b.Fatalf("benchmark instance too small: %d states", rep.Space.Count)
		}
	}
}

// BenchmarkCheckTracerOverheadOff is the untraced baseline.
func BenchmarkCheckTracerOverheadOff(b *testing.B) { benchCheckTraced(b) }

// BenchmarkCheckTracerOverheadNop runs with a no-op tracer and a live
// progress counter attached — the worst case a caller can configure
// without actually consuming events.
func BenchmarkCheckTracerOverheadNop(b *testing.B) {
	benchCheckTraced(b, verify.WithTracer(obs.Nop{}), verify.WithProgress(&obs.Progress{}))
}

// BenchmarkCheckEventsIdle runs the same 1<<20-state check with its pass
// spans published to an event-bus stream nobody subscribes to — the
// configuration every csserved job runs in when no SSE client watches.
// The contract extends the tracer one: within 5% of
// BenchmarkCheckTracerOverheadOff, since an idle publish is one mutex
// round-trip, one time.Now, and a ring-slot copy per pass boundary (the
// hot loops themselves only bump the progress counter once per chunk).
//
//	go test ./internal/verify -bench 'CheckTracerOverheadOff|CheckEventsIdle' -benchtime 5x -run '^$'
func BenchmarkCheckEventsIdle(b *testing.B) {
	bus := obs.NewBus(1024)
	benchCheckTraced(b,
		verify.WithTracer(bus.Stream("bench")),
		verify.WithProgress(&obs.Progress{}))
}

// BenchmarkCheckMetricsOff is the analyses-API overhead guard: a
// verdict-only Check after the metrics engine landed. The contract is
// that it stays within 5% of BenchmarkCheckTracerOverheadOff as recorded
// before the metrics passes existed — when off, the plumbing costs one
// Options field test after the verdict passes and nothing in the hot
// loops. Compare against BenchmarkCheckMetricsOn for what opting in
// pays:
//
//	go test ./internal/verify -bench 'CheckMetrics' -benchtime 5x -run '^$'
func BenchmarkCheckMetricsOff(b *testing.B) { benchCheckTraced(b) }

// BenchmarkCheckMetricsOn runs the same 1<<20-state check with the full
// metrics suite (distance profile, worst + expected stabilization).
func BenchmarkCheckMetricsOn(b *testing.B) {
	benchCheckTraced(b, verify.WithMetrics())
}

// benchCheckDiffusing1M runs the full Check on the 1M-state diffusing
// instance.
func benchCheckDiffusing1M(b *testing.B, options ...verify.Option) {
	inst, err := diffusing.New(diffusing.Binary(10))
	if err != nil {
		b.Fatal(err)
	}
	d := inst.Design
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := verify.Check(ctx, d.TolerantProgram(), d.S, d.T, options...)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Unfair.Converges {
			b.Fatal("benchmark instance must converge")
		}
	}
}

// BenchmarkCheckDiffusingCSR is the default engine: forward CSR built
// up front, reverse CSR built lazily for the convergence wave. Compare
// against the dense-table baseline recorded in DESIGN.md §6 for the
// regression guard (the CSR run must not be slower).
func BenchmarkCheckDiffusingCSR(b *testing.B) { benchCheckDiffusing1M(b) }

// TestCheckBeyondDenseBudget pins the headline capacity win of the CSR
// rebuild: the token-ring path instance N=7, K=9 has 9^8 = 43,046,721
// states and 15 actions, so the old dense successor table would need
// 4·15·9^8 ≈ 2.4 GiB — beyond the 2 GiB budget. The CSR index stores
// only enabled edges and fits with room to spare, so the instance
// verifies end-to-end on the in-RAM full tier.
func TestCheckBeyondDenseBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("43M-state end-to-end check (~2 min); skipped in -short mode")
	}
	inst, err := tokenring.NewPath(7, 9)
	if err != nil {
		t.Fatal(err)
	}
	d := inst.Design
	rep, err := verify.Check(context.Background(), d.TolerantProgram(), d.S, d.T)
	if err != nil {
		t.Fatal(err)
	}
	denseBytes := int64(4) * int64(len(d.TolerantProgram().Actions)) * rep.Space.Count
	if denseBytes <= 1<<31 {
		t.Fatalf("instance no longer exceeds the dense budget: %d bytes", denseBytes)
	}
	if mode := rep.Space.Mode(); mode != verify.SpaceFull {
		t.Fatalf("instance ran on %v, want the in-RAM full tier", mode)
	}
	edges, bytes := rep.Space.SuccIndexStats()
	if bytes >= denseBytes/2 {
		t.Errorf("CSR index %d bytes, want at least 2x below the dense %d", bytes, denseBytes)
	}
	if !rep.Unfair.Converges {
		t.Fatalf("path ring must converge: %s", rep.Unfair.Summary())
	}
	t.Logf("%d states, %d edges end-to-end in %v: CSR %d bytes vs dense %d, worst %d steps",
		rep.Space.Count, edges, rep.Elapsed, bytes, denseBytes, rep.Unfair.WorstSteps)
}

// TestCheckAboveOldCeiling pins the acceptance criterion as a regular
// test: an instance above the seed's 1<<22-state enumeration ceiling is
// verified end-to-end through Check, with the exact worst-case bound.
func TestCheckAboveOldCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("5.7M-state end-to-end check (~7s); skipped in -short mode")
	}
	inst, err := tokenring.NewRing(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Check(context.Background(), inst.P, inst.S, nil)
	if err != nil {
		t.Fatal(err)
	}
	const oldCeiling = int64(1) << 22
	if rep.Space.Count <= oldCeiling {
		t.Fatalf("instance has %d states, not above the old ceiling %d",
			rep.Space.Count, oldCeiling)
	}
	if !rep.Tolerant() {
		t.Fatalf("ring should be tolerant: %s", rep.Summary())
	}
	if !rep.Unfair.Converges {
		t.Fatalf("ring should converge unfairly: %s", rep.Unfair.Summary())
	}
	t.Logf("%d states end-to-end in %v: worst %d steps, mean %.2f",
		rep.Space.Count, rep.Elapsed, rep.Unfair.WorstSteps, rep.Unfair.MeanSteps)
}
