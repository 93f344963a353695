// Package tokenring implements the paper's Section 7.1 worked design: a
// stabilizing token-passing program for a ring of N+1 nodes, due to
// Dijkstra. Two faithful variants are provided.
//
// # Path variant (the paper's design formulation)
//
// The paper designs over a path 0..N with integer values x.j and invariant
//
//	S = (forall j : x.j >= x.(j+1)) and (x.0 = x.N or x.0 = x.N + 1)
//
// partitioned into two layers: the first conjunct's constraints
// x.j >= x.(j+1) (layer 0) and the helper constraints x.j = x.(j+1)
// (layer 1) that establish the second conjunct. Theorem 3 validates the
// design. The paper's integers are unbounded; this variant bounds them at
// 0..K-1 and saturates node 0's increment at the top, which preserves the
// layered convergence argument (documented in DESIGN.md).
//
// # Ring variant (the paper's printed program, mod-K)
//
// The classic K-state machine: node 0 increments modulo K when x.0 = x.N;
// node j copies its predecessor when x.j != x.(j-1). Node 0 is privileged
// when x.0 = x.N; node j when x.j != x.(j-1). The invariant is "exactly one
// node is privileged". Stabilization requires K large enough relative to N
// (experiment E8 finds the crossover exactly).
package tokenring

import (
	"fmt"

	"nonmask/internal/core"
	"nonmask/internal/program"
)

// PathInstance is the layered Section 7.1 design over bounded counters.
type PathInstance struct {
	// N is the highest node index (N+1 nodes, 0..N).
	N int
	// K is the counter domain size (values 0..K-1).
	K      int
	Design *core.Design
	// X holds the per-node counter variable IDs.
	X []program.VarID
	// Combined is the paper's printed program: node 0's increment plus the
	// merged closure/convergence copy action
	// "x.j != x.(j+1) -> x.(j+1) := x.j".
	Combined *program.Program
}

// NewPath builds the path variant. n is the highest node index (the paper's
// N); k is the counter domain size, k >= 2.
func NewPath(n, k int) (*PathInstance, error) {
	if n < 1 {
		return nil, fmt.Errorf("tokenring: need N >= 1, got %d", n)
	}
	if k < 2 {
		return nil, fmt.Errorf("tokenring: need K >= 2, got %d", k)
	}
	b := core.NewDesign(fmt.Sprintf("tokenring-path(N=%d,K=%d)", n, k))
	s := b.Schema()
	x := make([]program.VarID, n+1)
	for j := 0; j <= n; j++ {
		x[j] = s.MustDeclare(fmt.Sprintf("x[%d]", j), program.IntRange(0, int32(k-1)))
	}
	inst := &PathInstance{N: n, K: k, X: x}
	top := int32(k - 1)

	// Closure action of node 0: "x.0 = x.N -> x.0 := x.0 + 1", saturating
	// at the bounded domain's top.
	x0, xN := x[0], x[n]
	inc := program.NewAction("increment(0)", program.Closure,
		[]program.VarID{x0, xN}, []program.VarID{x0},
		func(st *program.State) bool {
			return st.Get(x0) == st.Get(xN) && st.Get(x0) < top
		},
		func(st *program.State) { st.Set(x0, st.Get(x0)+1) })
	b.Closure(inc)

	// Layer 0: constraints x.j >= x.(j+1) with convergence actions
	// "x.j < x.(j+1) -> x.(j+1) := x.j".
	// Layer 1: helper constraints x.j = x.(j+1) with convergence actions
	// "x.j > x.(j+1) -> x.(j+1) := x.j"; the layer's target is the second
	// conjunct of S, "x.0 = x.N or x.0 = x.N + 1".
	for j := 0; j < n; j++ {
		xj, xj1 := x[j], x[j+1]
		ge := program.NewPredicate(fmt.Sprintf("x[%d] >= x[%d]", j, j+1),
			[]program.VarID{xj, xj1},
			func(st *program.State) bool { return st.Get(xj) >= st.Get(xj1) })
		fixGE := program.NewAction(fmt.Sprintf("raise(%d)", j+1), program.Convergence,
			[]program.VarID{xj, xj1}, []program.VarID{xj1},
			func(st *program.State) bool { return st.Get(xj) < st.Get(xj1) },
			func(st *program.State) { st.Set(xj1, st.Get(xj)) })
		b.Constraint(0, ge, fixGE)

		eq := program.NewPredicate(fmt.Sprintf("x[%d] = x[%d]", j, j+1),
			[]program.VarID{xj, xj1},
			func(st *program.State) bool { return st.Get(xj) == st.Get(xj1) })
		fixEQ := program.NewAction(fmt.Sprintf("copy(%d)", j+1), program.Convergence,
			[]program.VarID{xj, xj1}, []program.VarID{xj1},
			func(st *program.State) bool { return st.Get(xj) > st.Get(xj1) },
			func(st *program.State) { st.Set(xj1, st.Get(xj)) })
		b.Constraint(1, eq, fixEQ)
	}
	// The second conjunct of S that layer 1 establishes.
	second := program.NewPredicate("x[0] = x[N] or x[0] = x[N]+1",
		[]program.VarID{x0, xN},
		func(st *program.State) bool {
			return st.Get(x0) == st.Get(xN) || st.Get(x0) == st.Get(xN)+1
		})
	b.Target(1, second)

	d, err := b.Build()
	if err != nil {
		return nil, err
	}
	inst.Design = d

	// The printed program: raise and copy merge into
	// "x.j != x.(j+1) -> x.(j+1) := x.j".
	p := program.New(d.Name+"/combined", d.Schema)
	p.Add(inc)
	for j := 0; j < n; j++ {
		xj, xj1 := x[j], x[j+1]
		p.Add(program.NewAction(fmt.Sprintf("pass(%d)", j+1), program.Closure,
			[]program.VarID{xj, xj1}, []program.VarID{xj1},
			func(st *program.State) bool { return st.Get(xj) != st.Get(xj1) },
			func(st *program.State) { st.Set(xj1, st.Get(xj)) }))
	}
	inst.Combined = p
	return inst, nil
}

// AllZero returns the legitimate state with every counter zero.
func (inst *PathInstance) AllZero() *program.State {
	return inst.Design.Schema.NewState()
}

// RingInstance is Dijkstra's K-state token ring.
type RingInstance struct {
	// N is the highest node index (N+1 nodes, 0..N).
	N int
	// K is the number of counter states.
	K int
	// P is the ring program (all actions are closure actions: the ring is
	// "self-stabilizing as printed" — its convergence actions coincide with
	// its closure actions, as the paper's combined form shows).
	P *program.Program
	// S holds exactly when exactly one node is privileged.
	S *program.Predicate
	// X holds the per-node counter variable IDs.
	X []program.VarID
	// Groups lists each node's variables for per-node fault injection.
	Groups [][]program.VarID
}

// NewRing builds the mod-K ring on n+1 nodes with counter domain 0..k-1.
func NewRing(n, k int) (*RingInstance, error) {
	if n < 1 {
		return nil, fmt.Errorf("tokenring: need N >= 1, got %d", n)
	}
	if k < 2 {
		return nil, fmt.Errorf("tokenring: need K >= 2, got %d", k)
	}
	s := program.NewSchema()
	x := make([]program.VarID, n+1)
	groups := make([][]program.VarID, n+1)
	for j := 0; j <= n; j++ {
		x[j] = s.MustDeclare(fmt.Sprintf("x[%d]", j), program.IntRange(0, int32(k-1)))
		groups[j] = []program.VarID{x[j]}
	}
	p := program.New(fmt.Sprintf("tokenring-ring(N=%d,K=%d)", n, k), s)
	x0, xN := x[0], x[n]
	kk := int32(k)
	p.Add(program.NewAction("advance(0)", program.Closure,
		[]program.VarID{x0, xN}, []program.VarID{x0},
		func(st *program.State) bool { return st.Get(x0) == st.Get(xN) },
		func(st *program.State) { st.Set(x0, (st.Get(x0)+1)%kk) }))
	for j := 1; j <= n; j++ {
		xj, xp := x[j], x[j-1]
		p.Add(program.NewAction(fmt.Sprintf("copy(%d)", j), program.Closure,
			[]program.VarID{xj, xp}, []program.VarID{xj},
			func(st *program.State) bool { return st.Get(xj) != st.Get(xp) },
			func(st *program.State) { st.Set(xj, st.Get(xp)) }))
	}
	inst := &RingInstance{N: n, K: k, P: p, X: x, Groups: groups}
	inst.S = program.NewPredicate("exactly one privilege", x,
		func(st *program.State) bool { return inst.PrivilegeHolder(st) >= 0 })
	return inst, nil
}

// Privileged reports whether node j holds the privilege at st: node 0 when
// x.0 = x.N, node j > 0 when x.j != x.(j-1).
func (inst *RingInstance) Privileged(st *program.State, j int) bool {
	if j == 0 {
		return st.Get(inst.X[0]) == st.Get(inst.X[inst.N])
	}
	return st.Get(inst.X[j]) != st.Get(inst.X[j-1])
}

// PrivilegeCount returns the number of privileged nodes at st. It is at
// least 1 in every state — the classic pigeonhole argument — which the
// tests confirm.
func (inst *RingInstance) PrivilegeCount(st *program.State) int {
	n := 0
	for j := 0; j <= inst.N; j++ {
		if inst.Privileged(st, j) {
			n++
		}
	}
	return n
}

// PrivilegeHolder returns the privileged node when exactly one exists,
// else -1.
func (inst *RingInstance) PrivilegeHolder(st *program.State) int {
	holder := -1
	for j := 0; j <= inst.N; j++ {
		if inst.Privileged(st, j) {
			if holder >= 0 {
				return -1
			}
			holder = j
		}
	}
	return holder
}

// AllZero returns the legitimate state with every counter zero (node 0
// privileged).
func (inst *RingInstance) AllZero() *program.State {
	return inst.P.Schema.NewState()
}
