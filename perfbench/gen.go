package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"nonmask/internal/protocols/registry"
	"nonmask/internal/service"
)

// Every input the program sees is made here from the workload seed: the
// verify-cold job list, the service catalog, the Zipf draws, the Poisson
// arrival schedule, and the read/batch mix. The same seed gives the same
// inputs; the program never sees the seed itself.

// job is one submission the harness can make, with the oracle's
// prediction for it.
type job struct {
	Label string
	Spec  service.JobSpec
	Want  expect
}

func catalogJob(protocol string, p registry.Params, opts service.JobOptions) job {
	spec := service.JobSpec{Protocol: protocol, Params: p, Options: opts}
	want, err := catalogOracle(spec)
	if err != nil {
		panic(err) // the generators only emit families the oracle covers
	}
	label := fmt.Sprintf("%s(%s)%s", protocol, p.String(), optsLabel(opts))
	return job{Label: label, Spec: spec, Want: want}
}

func optsLabel(o service.JobOptions) string {
	var parts []string
	if o.SpaceMode != "" {
		parts = append(parts, o.SpaceMode)
	}
	if len(o.Analyses) > 0 {
		parts = append(parts, strings.Join(o.Analyses, "+"))
	}
	if o.Strategy != "" {
		parts = append(parts, o.Strategy)
	}
	if o.Saboteur != nil {
		parts = append(parts, fmt.Sprintf("saboteur k=%d", o.Saboteur.K))
	}
	if len(parts) == 0 {
		return ""
	}
	return " [" + strings.Join(parts, ",") + "]"
}

var metricsOpt = service.JobOptions{Analyses: []string{service.AnalysisMetrics}}

// gclTokenPath is the Section 5 layered token path (testdata/tokenring.gcl)
// on n nodes with counters in 0..k-1: k^n states, valid by Theorem 3.
// name names the program and its counter array.
func gclTokenPath(name string, n, k int, opts service.JobOptions) job {
	last := n - 1
	src := fmt.Sprintf(`program %[1]s;
const K = %[2]d;
var %[1]s_x[%[3]d] : 0..K-1;
invariant GE for j in 0..%[4]d : %[1]s_x[j] >= %[1]s_x[j+1];
invariant EQ layer 1 for j in 0..%[4]d : %[1]s_x[j] = %[1]s_x[j+1];
target 1 : %[1]s_x[0] = %[1]s_x[%[5]d] || %[1]s_x[0] = %[1]s_x[%[5]d] + 1;
action inc closure : %[1]s_x[0] = %[1]s_x[%[5]d] && %[1]s_x[0] < K - 1 -> %[1]s_x[0] := %[1]s_x[0] + 1;
action raise for j in 0..%[4]d convergence establishes GE : %[1]s_x[j] < %[1]s_x[j+1] -> %[1]s_x[j+1] := %[1]s_x[j];
action copy for j in 0..%[4]d convergence establishes EQ : %[1]s_x[j] > %[1]s_x[j+1] -> %[1]s_x[j+1] := %[1]s_x[j];
`, name, k, n, n-2, last)
	return job{
		Label: fmt.Sprintf("gcl %s tokenpath(n=%d,K=%d)%s", name, n, k, optsLabel(opts)),
		Spec:  service.JobSpec{Source: src, Options: opts},
		Want:  expect{service.VerdictSatisfied, ipow(k, n)},
	}
}

// gclDiffusing is the Section 5.1 diffusing computation
// (testdata/diffusing.gcl) on the rooted tree given by parent (parent[0] =
// 0 is the root, parent[j] < j): 4^n states, valid on every tree.
func gclDiffusing(name string, parent []int, opts service.JobOptions) job {
	ps := make([]string, len(parent))
	for i, p := range parent {
		ps[i] = fmt.Sprint(p)
	}
	src := fmt.Sprintf(`program %s;
const N = %d;
const P = [%s];
var c[N] : {green, red};
var sn[N] : bool;
invariant R for j in 1..N-1 :
    (c[j] = c[P[j]] && sn[j] = sn[P[j]]) || (c[j] = green && c[P[j]] = red);
action initiate closure : c[0] = green -> c[0], sn[0] := red, !sn[0];
action propagate for j in 1..N-1 closure :
    c[j] = green && c[P[j]] = red && sn[j] != sn[P[j]] -> c[j], sn[j] := c[P[j]], sn[P[j]];
action reflect0 closure :
    c[0] = red && (forall k in 1..N-1 : (P[k] != 0 || (c[k] = green && sn[0] = sn[k]))) -> c[0] := green;
action reflect for j in 1..N-1 closure :
    c[j] = red && (forall k in 1..N-1 : (P[k] != j || (c[k] = green && sn[j] = sn[k]))) -> c[j] := green;
action fix for j in 1..N-1 convergence establishes R :
    !((c[j] = c[P[j]] && sn[j] = sn[P[j]]) || (c[j] = green && c[P[j]] = red))
        -> c[j], sn[j] := c[P[j]], sn[P[j]];
`, name, len(parent), strings.Join(ps, ", "))
	return job{
		Label: fmt.Sprintf("gcl %s diffusing(P=[%s])%s", name, strings.Join(ps, ","), optsLabel(opts)),
		Spec:  service.JobSpec{Source: src, Options: opts},
		Want:  expect{service.VerdictSatisfied, ipow(4, len(parent))},
	}
}

// gclXYZ is the Section 4 x/y/z example (testdata/xyz.gcl) with domains
// 0..d-1: d^3 states. The out-tree design is valid; the interfering one,
// where both convergence actions write x, livelocks. name prefixes the
// program's variables.
func gclXYZ(name string, d int, interfering bool, opts service.JobOptions) job {
	fix := fmt.Sprintf(`action fixy convergence establishes NEQ : %[1]s_x = %[1]s_y -> %[1]s_y := (%[1]s_y + 1) mod %[2]d;
action fixz convergence establishes LEQ : %[1]s_x > %[1]s_z -> %[1]s_z := %[1]s_x;`, name, d)
	variant, verdict := "out-tree", service.VerdictSatisfied
	if interfering {
		fix = fmt.Sprintf(`action changex convergence establishes NEQ : %[1]s_x = %[1]s_y -> %[1]s_x := (%[1]s_x + 1) mod %[2]d;
action lowerx convergence establishes LEQ : %[1]s_x > %[1]s_z -> %[1]s_x := %[1]s_z;`, name, d)
		variant, verdict = "interfering", service.VerdictViolated
	}
	src := fmt.Sprintf(`program %[1]s;
var %[1]s_x : 0..%[2]d;
var %[1]s_y : 0..%[2]d;
var %[1]s_z : 0..%[2]d;
invariant NEQ : %[1]s_x != %[1]s_y;
invariant LEQ : %[1]s_x <= %[1]s_z;
%[3]s
`, name, d-1, fix)
	return job{
		Label: fmt.Sprintf("gcl %s xyz/%s(d=%d)%s", name, variant, d, optsLabel(opts)),
		Spec:  service.JobSpec{Source: src, Options: opts},
		Want:  expect{verdict, ipow(d, 3)},
	}
}

// randomParents draws a random rooted tree on n nodes (parent[j] < j).
func randomParents(rng *rand.Rand, n int) []int {
	p := make([]int, n)
	for j := 1; j < n; j++ {
		p[j] = rng.Intn(j)
	}
	return p
}

// relabel returns a random isomorphic copy of the tree parent (parent[j] <
// j): nodes are renumbered in a random order that still lists every
// parent before its children.
func relabel(rng *rand.Rand, parent []int) []int {
	children := make([][]int, len(parent))
	for j := 1; j < len(parent); j++ {
		children[parent[j]] = append(children[parent[j]], j)
	}
	label := make([]int, len(parent))
	next := 1
	avail := append([]int(nil), children[0]...)
	for len(avail) > 0 {
		i := rng.Intn(len(avail))
		v := avail[i]
		avail = append(avail[:i], avail[i+1:]...)
		label[v] = next
		next++
		avail = append(avail, children[v]...)
	}
	out := make([]int, len(parent))
	for j := 1; j < len(parent); j++ {
		out[label[j]] = label[parent[j]]
	}
	return out
}

func ring(n, k int, o service.JobOptions) job {
	return catalogJob("tokenring-ring", registry.Params{N: n, K: k}, o)
}

func path(n, k int, o service.JobOptions) job {
	return catalogJob("tokenring-path", registry.Params{N: n, K: k}, o)
}

func tree(protocol string, n int, shape string, seed int64, o service.JobOptions) job {
	return catalogJob(protocol, registry.Params{N: n, Tree: shape, Seed: seed}, o)
}

var none service.JobOptions

// Fixed 8-node tree shapes for the GCL diffusing jobs: a binary tree and
// a caterpillar (a 4-node spine, a leaf on each spine node).
var (
	binary8      = []int{0, 0, 0, 1, 1, 2, 2, 3}
	caterpillar8 = []int{0, 0, 1, 2, 0, 1, 2, 3}
)

// genVerifyCold builds one verify-cold pass: 26 distinct checks, mostly
// two per kind of check (a protocol family on one space tier and analysis
// set), each of 65k–1.7M full-product states and roughly 0.25–1 s on one
// worker. The catalog instances are the same for every seed, so the work
// in a pass does not depend on the seed; the seed fixes the order of the
// pass and the GCL instances, which are fresh programs (new names, a
// random relabelling of the tree) of the same size for each seed.
func genVerifyCold(seed int64) []job {
	rng := rand.New(rand.NewSource(seed))
	name := func() string { return fmt.Sprintf("p%05d", rng.Intn(100000)) }
	quot := service.JobOptions{SpaceMode: "quotient"}
	spill := service.JobOptions{SpaceMode: "spill"}
	sab := service.JobOptions{Saboteur: &service.SaboteurOptions{K: 2}}
	jobs := []job{
		// Converging K-state rings (arbitrary-daemon path).
		ring(6, 7, none), ring(5, 9, none),
		// Livelocking rings, K < N: the weakly-fair-daemon path runs too.
		ring(7, 5, none), ring(8, 4, none),
		catalogJob("threestate", registry.Params{N: 10}, none),
		catalogJob("fourstate", registry.Params{N: 9}, none), catalogJob("fourstate", registry.Params{N: 9}, service.JobOptions{Strategy: "exhaustive"}),
		tree("diffusing", 9, "binary", 0, none), tree("diffusing", 9, "chain", 0, none),
		tree("termination", 6, "star", 0, none), tree("termination", 6, "binary", 0, none),
		path(6, 7, none), path(5, 9, none),
		// Symmetry quotient tier.
		ring(6, 7, quot), ring(5, 10, quot),
		// Disk spill tier.
		ring(6, 7, spill), catalogJob("threestate", registry.Params{N: 10}, spill),
		// Quantitative tolerance metrics.
		catalogJob("fourstate", registry.Params{N: 8}, metricsOpt), tree("diffusing", 8, "binary", 0, metricsOpt),
		// GCL front end.
		gclTokenPath(name(), 6, 9, none), gclTokenPath(name(), 8, 5, none),
		gclDiffusing(name(), relabel(rng, binary8), none), gclDiffusing(name(), relabel(rng, caterpillar8), none),
		gclXYZ(name(), 120, false, none), gclXYZ(name(), 110, true, none),
		// A small saboteur search.
		ring(5, 7, sab),
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// coldWarmUp is the check every verify-cold set-up runs before timing:
// one program of the pass, the diffusing computation on the 8-node
// binary tree, under a name of its own, so it warms the process's heap
// and code paths without caching any job of the pass.
func coldWarmUp() job {
	return gclDiffusing("warmup", binary8, none)
}

// blockOrder lists catalogKinds by popularity rank within a block: a GCL
// source family in every third rank.
var blockOrder = []int{0, 8, 4, 2, 9, 6, 1, 10, 5, 3, 11, 7}

// catalogKinds are the service-mix instance families, one entry per slot
// of a popularity block: 8 catalog and 4 GCL source slots.
func catalogKinds(rng *rand.Rand) []func(service.JobOptions) job {
	shapes := []string{"chain", "star", "binary", "random"}
	treeJob := func(protocol string, lo, span int, o service.JobOptions) job {
		shape := shapes[rng.Intn(len(shapes))]
		var s int64
		if shape == "random" {
			s = 1 + rng.Int63n(500)
		}
		return tree(protocol, lo+rng.Intn(span), shape, s, o)
	}
	ringJob := func(o service.JobOptions) job {
		n := 2 + rng.Intn(4)
		return ring(n, smallK(rng, n+1), o)
	}
	return []func(service.JobOptions) job{
		ringJob,
		ringJob,
		func(o service.JobOptions) job {
			n := 2 + rng.Intn(4)
			return path(n, smallK(rng, n+1), o)
		},
		func(o service.JobOptions) job {
			if rng.Intn(2) == 0 {
				return catalogJob("threestate", registry.Params{N: 5 + rng.Intn(5)}, o)
			}
			return catalogJob("fourstate", registry.Params{N: 4 + rng.Intn(4)}, o)
		},
		func(o service.JobOptions) job { return treeJob("diffusing", 5, 3, o) },
		func(o service.JobOptions) job { return treeJob("diffusing", 5, 3, o) },
		func(o service.JobOptions) job { return treeJob("termination", 4, 2, o) },
		func(o service.JobOptions) job { return treeJob("termination", 4, 2, o) },
		func(o service.JobOptions) job {
			n := 4 + rng.Intn(4)
			return gclTokenPath("tokenpath", n, smallK(rng, n), o)
		},
		func(o service.JobOptions) job {
			n := 4 + rng.Intn(4)
			return gclTokenPath("tokenpath", n, smallK(rng, n), o)
		},
		func(o service.JobOptions) job { return gclDiffusing("diffusing", randomParents(rng, 5+rng.Intn(3)), o) },
		func(o service.JobOptions) job { return gclXYZ("xyz", 10+rng.Intn(30), rng.Intn(3) == 0, o) },
	}
}

// genCatalog builds the service-mix catalog: size distinct small
// instances (1k–60k states; checks of a few ms to a few tens of ms),
// listed by popularity rank. Ranks come in blocks of 12 with a fixed
// make-up and order (blockOrder) — 8 catalog and 4 GCL source instances,
// 2 of the 12 with the metrics analyses — so the seed picks the instances
// but not the mix: under a skewed popularity the few most popular items
// carry much of the traffic, and their kinds must not change from seed to
// seed. The first head ranks — the items set-up warms — are drawn from a
// fixed seed, so the warm-up checks the same work in every run; the seed
// picks the rest.
func genCatalog(rng *rand.Rand, size, head int) []job {
	headKinds := catalogKinds(rand.New(rand.NewSource(headSeed)))
	tailKinds := catalogKinds(rng)
	seen := make(map[string]bool)
	var out []job
	for len(out) < size {
		for pos, k := range blockOrder {
			kinds := tailKinds
			if len(out) < head {
				kinds = headKinds
			}
			o := none
			if pos == 4 || pos == 9 {
				o = metricsOpt
			}
			// A family with few instances can run out of fresh ones deep
			// in the tail; the slot then takes the next family.
			for try := 0; ; try++ {
				j := kinds[(k+try/20)%len(kinds)](o)
				if !seen[j.Label] {
					seen[j.Label] = true
					out = append(out, j)
					break
				}
			}
		}
	}
	return out[:size]
}

// headSeed draws the service-mix catalog's head (see genCatalog).
const headSeed = 1

// smallK draws a counter domain k ≥ 4 with k^vars in [1000, 60000].
func smallK(rng *rand.Rand, vars int) int {
	lo := int(math.Ceil(math.Pow(1000, 1/float64(vars))))
	hi := int(math.Floor(math.Pow(60000, 1/float64(vars))))
	if lo < 4 {
		lo = 4
	}
	if hi < lo {
		hi = lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// opKind is what one open-loop operation does.
type opKind int

const (
	opSubmit opKind = iota // POST /v1/jobs of a catalog item
	opRead                 // GET /v1/jobs/{id} of an earlier submission, via a non-owner node
	opBatch                // POST /v1/batches: a small catalog sweep
)

// op is one scheduled open-loop operation.
type op struct {
	At    time.Duration // due time from the start of the timed phase
	Kind  opKind
	Item  int // catalog index (opSubmit)
	Entry int // entry node (cluster)
	Of    int // index of the earlier opSubmit an opRead addresses
	Batch service.BatchSpec
	Want  map[string]expect // per-member oracle for opBatch, by program name
}

// mixPlan is the whole open-loop input of one run.
type mixPlan struct {
	Catalog []job
	Warm    []int // catalog items checked during set-up
	Ops     []op
}

// mixShape sizes an open-loop workload.
type mixShape struct {
	Rate      float64 // Poisson arrivals per second
	Catalog   int     // distinct instances
	Zipf      float64 // popularity exponent s (> 1): P(rank k) ∝ (v + k)^-s
	ZipfV     float64 // popularity offset v (≥ 1); larger flattens the head
	Warm      int     // most popular items checked before timing
	Nodes     int     // entry nodes, round-robin
	ReadShare float64 // share of ops that are id-addressed reads
	BatchEach int     // one batch sweep every BatchEach ops (0 = none)
}

// genMix builds an open-loop plan covering d of arrivals.
func genMix(seed int64, sh mixShape, d time.Duration) mixPlan {
	rng := rand.New(rand.NewSource(seed))
	plan := mixPlan{Catalog: genCatalog(rng, sh.Catalog, sh.Warm)}
	for i := 0; i < sh.Warm && i < len(plan.Catalog); i++ {
		plan.Warm = append(plan.Warm, i)
	}
	zipf := rand.NewZipf(rng, sh.Zipf, sh.ZipfV, uint64(len(plan.Catalog)-1))
	var submits []int
	// Poisson arrivals conditioned on their count: rate×d uniform times,
	// sorted. Every run of a workload then offers the same number of
	// requests, and the count's own noise stays out of the metrics.
	at := make([]time.Duration, int(math.Round(sh.Rate*d.Seconds())))
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	for i, t := range at {
		o := op{At: t, Kind: opSubmit, Entry: i % max(sh.Nodes, 1)}
		switch {
		case sh.BatchEach > 0 && i%sh.BatchEach == sh.BatchEach-1:
			o.Kind = opBatch
			o.Batch, o.Want = genSweep(rng)
		case sh.ReadShare > 0 && len(submits) > 200 && rng.Float64() < sh.ReadShare:
			// Read a submission made at least ~100 ops earlier, so its
			// admission has long returned an id.
			o.Kind = opRead
			o.Of = submits[rng.Intn(len(submits)-100)]
		default:
			o.Item = int(zipf.Uint64())
			submits = append(submits, len(plan.Ops))
		}
		plan.Ops = append(plan.Ops, o)
	}
	return plan
}

// genSweep draws a small K-range sweep over one token ring: four members
// of at most 60k states, the low end of K livelocking when K < N. About
// fifty distinct sweeps exist, so most batches check fresh members.
func genSweep(rng *rand.Rand) (service.BatchSpec, map[string]expect) {
	n := 2 + rng.Intn(3)
	hi := int(math.Floor(math.Pow(60000, 1/float64(n+1)))) // largest K of the sweep
	lo := 3 + rng.Intn(hi-5)
	spec := service.BatchSpec{Sweep: &service.SweepSpec{
		Protocol: "tokenring-ring",
		Params:   registry.Params{N: n},
		Ranges:   map[string]service.RangeSpec{"k": {From: lo, To: lo + 3}},
	}}
	want := make(map[string]expect)
	for k := lo; k <= lo+3; k++ {
		w, _ := catalogOracle(service.JobSpec{Protocol: "tokenring-ring", Params: registry.Params{N: n, K: k}})
		want[fmt.Sprintf("tokenring-ring(N=%d,K=%d)", n, k)] = w
	}
	return spec, want
}
