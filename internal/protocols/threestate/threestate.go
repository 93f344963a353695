// Package threestate implements Dijkstra's three-state self-stabilizing
// token array — the second algorithm of the paper's citation [9]
// (Dijkstra, "Self-stabilizing systems in spite of distributed control",
// 1974). Where the K-state ring of Section 7.1 needs a counter space that
// grows with the ring size, the three-state machines need exactly three
// states per node regardless of size:
//
//	bottom (node 0):  if x[1] = x[0]+1                      then x[0] := x[0]-1
//	normal (0<j<N):   if x[j+1] = x[j]+1                    then x[j] := x[j+1]
//	                  if x[j-1] = x[j]+1                    then x[j] := x[j-1]
//	top (node N):     if x[N-1] = x[0] and x[N-1]+1 != x[N] then x[N] := x[N-1]+1
//
// (arithmetic modulo 3). A machine is privileged exactly when one of its
// guards holds; the legitimate states are those with exactly one
// privilege. The tests let the exact checker confirm stabilization — a
// useful stress for the checker, since privileges here travel both up and
// down the array.
package threestate

import (
	"fmt"

	"nonmask/internal/program"
)

// Instance is one three-state token array.
type Instance struct {
	// N is the highest node index (N+1 nodes, 0..N).
	N int
	// P is the program; as in the K-state ring, the printed algorithm is
	// self-stabilizing as-is (closure and convergence coincide).
	P *program.Program
	// S holds exactly when exactly one machine is privileged.
	S *program.Predicate
	// X holds the per-node state variables (domain 0..2).
	X []program.VarID
	// Groups lists each node's variables for fault injection.
	Groups [][]program.VarID
}

// New builds the three-state array on n+1 nodes, n >= 2.
func New(n int) (*Instance, error) {
	if n < 2 {
		return nil, fmt.Errorf("threestate: need N >= 2 (three machines), got %d", n)
	}
	s := program.NewSchema()
	x := make([]program.VarID, n+1)
	groups := make([][]program.VarID, n+1)
	for j := 0; j <= n; j++ {
		x[j] = s.MustDeclare(fmt.Sprintf("x[%d]", j), program.IntRange(0, 2))
		groups[j] = []program.VarID{x[j]}
	}
	p := program.New(fmt.Sprintf("threestate(N=%d)", n), s)
	inc := func(v int32) int32 { return (v + 1) % 3 }
	dec := func(v int32) int32 { return (v + 2) % 3 }

	// Bottom.
	x0, x1 := x[0], x[1]
	p.Add(program.NewAction("bottom", program.Closure,
		[]program.VarID{x0, x1}, []program.VarID{x0},
		func(st *program.State) bool { return st.Get(x1) == inc(st.Get(x0)) },
		func(st *program.State) { st.Set(x0, dec(st.Get(x0))) }))

	// Normal machines: two actions each.
	for j := 1; j < n; j++ {
		xj, xl, xr := x[j], x[j-1], x[j+1]
		p.Add(program.NewAction(fmt.Sprintf("up(%d)", j), program.Closure,
			[]program.VarID{xj, xr}, []program.VarID{xj},
			func(st *program.State) bool { return st.Get(xr) == inc(st.Get(xj)) },
			func(st *program.State) { st.Set(xj, st.Get(xr)) }))
		p.Add(program.NewAction(fmt.Sprintf("down(%d)", j), program.Closure,
			[]program.VarID{xj, xl}, []program.VarID{xj},
			func(st *program.State) bool { return st.Get(xl) == inc(st.Get(xj)) },
			func(st *program.State) { st.Set(xj, st.Get(xl)) }))
	}

	// Top.
	xN, xN1 := x[n], x[n-1]
	p.Add(program.NewAction("top", program.Closure,
		[]program.VarID{xN, xN1, x0}, []program.VarID{xN},
		func(st *program.State) bool {
			return st.Get(xN1) == st.Get(x0) && inc(st.Get(xN1)) != st.Get(xN)
		},
		func(st *program.State) { st.Set(xN, inc(st.Get(xN1))) }))

	inst := &Instance{N: n, P: p, X: x, Groups: groups}
	inst.S = program.NewPredicate("exactly one privilege", x,
		func(st *program.State) bool { return inst.PrivilegeHolder(st) >= 0 })
	return inst, nil
}

// Privileged reports whether machine j holds a privilege at st (any of its
// guards enabled).
func (inst *Instance) Privileged(st *program.State, j int) bool {
	inc := func(v int32) int32 { return (v + 1) % 3 }
	get := func(k int) int32 { return st.Get(inst.X[k]) }
	switch j {
	case 0:
		return get(1) == inc(get(0))
	case inst.N:
		return get(inst.N-1) == get(0) && inc(get(inst.N-1)) != get(inst.N)
	default:
		return get(j+1) == inc(get(j)) || get(j-1) == inc(get(j))
	}
}

// PrivilegeCount returns the number of privileged machines at st.
func (inst *Instance) PrivilegeCount(st *program.State) int {
	n := 0
	for j := 0; j <= inst.N; j++ {
		if inst.Privileged(st, j) {
			n++
		}
	}
	return n
}

// PrivilegeHolder returns the privileged machine when exactly one exists,
// else -1. It stops at the second privileged machine.
func (inst *Instance) PrivilegeHolder(st *program.State) int {
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

// AllZero returns the state with every machine at 0.
func (inst *Instance) AllZero() *program.State {
	return inst.P.Schema.NewState()
}
