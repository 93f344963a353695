// Package fourstate implements Dijkstra's four-state self-stabilizing
// machines — the third algorithm of the paper's citation [9] (Dijkstra,
// "Self-stabilizing systems in spite of distributed control", 1974),
// completing the trio alongside the K-state ring (Section 7.1 /
// internal/protocols/tokenring) and the three-state array
// (internal/protocols/threestate).
//
// Machines 0..N sit on a line. Each normal machine holds a bit x.j and an
// "up" pointer up.j; the bottom machine's up is permanently true and the
// top machine's permanently false (so they hold just the bit — hence four
// states for normal machines, two for the ends):
//
//	bottom (0):     if x[0] = x[1] and not up[1]            then x[0] := !x[0]
//	top (N):        if x[N] != x[N-1]                       then x[N] := x[N-1]
//	normal (0<j<N): if x[j] != x[j-1]                       then x[j] := x[j-1]; up[j] := true
//	                if x[j] = x[j+1] and up[j] and not up[j+1] then up[j] := false
//
// where up[N] reads as false and up for the bottom as true. A machine is
// privileged when one of its guards holds; legitimate states have exactly
// one privilege. The tests let the exact checker confirm stabilization.
package fourstate

import (
	"fmt"

	"nonmask/internal/program"
)

// Instance is one four-state machine line.
type Instance struct {
	// N is the highest machine index (N+1 machines).
	N int
	// P is the program (self-stabilizing as printed).
	P *program.Program
	// S holds exactly when exactly one machine is privileged.
	S *program.Predicate
	// X holds the per-machine bit; Up the pointers of machines 1..N-1
	// (Up[0] and Up[N] are unused — the ends' pointers are constant).
	X, Up []program.VarID
	// Groups lists each machine's variables for fault injection.
	Groups [][]program.VarID
}

// New builds the line on n+1 machines, n >= 2.
func New(n int) (*Instance, error) {
	if n < 2 {
		return nil, fmt.Errorf("fourstate: need N >= 2 (three machines), got %d", n)
	}
	s := program.NewSchema()
	x := make([]program.VarID, n+1)
	up := make([]program.VarID, n+1)
	groups := make([][]program.VarID, n+1)
	for j := 0; j <= n; j++ {
		x[j] = s.MustDeclare(fmt.Sprintf("x[%d]", j), program.Bool())
		groups[j] = []program.VarID{x[j]}
		if j > 0 && j < n {
			up[j] = s.MustDeclare(fmt.Sprintf("up[%d]", j), program.Bool())
			groups[j] = append(groups[j], up[j])
		}
	}
	inst := &Instance{N: n, X: x, Up: up, Groups: groups}

	// upAt reads machine k's pointer with the ends' constants.
	upAt := func(st *program.State, k int) bool {
		switch k {
		case 0:
			return true
		case n:
			return false
		default:
			return st.Bool(up[k])
		}
	}

	p := program.New(fmt.Sprintf("fourstate(N=%d)", n), s)

	// Bottom. Machine 1 is normal (n >= 2), so up[1] exists.
	p.Add(program.NewAction("bottom", program.Closure,
		[]program.VarID{x[0], x[1], up[1]}, []program.VarID{x[0]},
		func(st *program.State) bool {
			return st.Bool(x[0]) == st.Bool(x[1]) && !upAt(st, 1)
		},
		func(st *program.State) { st.SetBool(x[0], !st.Bool(x[0])) }))

	// Normal machines.
	for j := 1; j < n; j++ {
		j := j
		// Move the token up: adopt the lower neighbor's bit.
		p.Add(program.NewAction(fmt.Sprintf("adopt(%d)", j), program.Closure,
			[]program.VarID{x[j], x[j-1], up[j]}, []program.VarID{x[j], up[j]},
			func(st *program.State) bool { return st.Bool(x[j]) != st.Bool(x[j-1]) },
			func(st *program.State) {
				st.SetBool(x[j], st.Bool(x[j-1]))
				st.SetBool(up[j], true)
			}))
		// Reflect the token down: drop the up pointer.
		reads := []program.VarID{x[j], x[j+1], up[j]}
		if j+1 < n {
			reads = append(reads, up[j+1])
		}
		p.Add(program.NewAction(fmt.Sprintf("drop(%d)", j), program.Closure,
			reads, []program.VarID{up[j]},
			func(st *program.State) bool {
				return st.Bool(x[j]) == st.Bool(x[j+1]) && st.Bool(up[j]) && !upAt(st, j+1)
			},
			func(st *program.State) { st.SetBool(up[j], false) }))
	}

	// Top.
	p.Add(program.NewAction("top", program.Closure,
		[]program.VarID{x[n], x[n-1]}, []program.VarID{x[n]},
		func(st *program.State) bool { return st.Bool(x[n]) != st.Bool(x[n-1]) },
		func(st *program.State) { st.SetBool(x[n], st.Bool(x[n-1])) }))

	inst.P = p
	vars := append([]program.VarID{}, x...)
	for j := 1; j < n; j++ {
		vars = append(vars, up[j])
	}
	inst.S = program.NewPredicate("exactly one privilege", vars,
		func(st *program.State) bool { return inst.PrivilegeHolder(st) >= 0 })
	return inst, nil
}

// Privileged reports whether machine j holds a privilege at st.
func (inst *Instance) Privileged(st *program.State, j int) bool {
	n := inst.N
	upAt := func(k int) bool {
		switch k {
		case 0:
			return true
		case n:
			return false
		default:
			return st.Bool(inst.Up[k])
		}
	}
	xAt := func(k int) bool { return st.Bool(inst.X[k]) }
	switch j {
	case 0:
		return xAt(0) == xAt(1) && !upAt(1)
	case n:
		return xAt(n) != xAt(n-1)
	default:
		if xAt(j) != xAt(j-1) {
			return true
		}
		return xAt(j) == xAt(j+1) && upAt(j) && !upAt(j+1)
	}
}

// PrivilegeCount returns the number of privileged machines at st.
func (inst *Instance) PrivilegeCount(st *program.State) int {
	c := 0
	for j := 0; j <= inst.N; j++ {
		if inst.Privileged(st, j) {
			c++
		}
	}
	return c
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

// AllFalse returns the state with every bit and pointer false.
func (inst *Instance) AllFalse() *program.State {
	return inst.P.Schema.NewState()
}
