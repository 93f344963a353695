package registry

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nonmask/internal/program"
	"nonmask/internal/verify"
)

// Symmetry advertisement (DESIGN §13). A catalog entry that knows a group
// of program automorphisms of its state space attaches a canonicalization
// hook to the built Instance; the verifier's quotient tier then runs every
// pass on orbit representatives alone. Advertising is the entry's
// responsibility and carries the soundness obligation spelled out on
// verify.Symmetry — the registry's symmetry tests discharge it by running
// verify.ValidateSymmetry exhaustively on small instances of every
// advertising family.
//
// Two groups are advertised today:
//
//	value rotation:      the mod-K token ring's actions and privilege
//	                     predicate only compare counters, so adding a
//	                     constant (mod K) to every x.j is an automorphism;
//	                     the orbit representative is the state with x.0 = 0
//	                     (factor K fewer states);
//	subtree isomorphism: the tree-wave protocols treat children
//	                     symmetrically, so exchanging isomorphic sibling
//	                     subtrees (equal per-node variable signatures and
//	                     equal shapes, recursively) is an automorphism; the
//	                     representative sorts each class of isomorphic
//	                     sibling subtrees by canonical value vector.

// ringRotation is the Z_K value-rotation group of the mod-K token ring:
// canonicalize by subtracting x[0] from every counter (mod K), making
// x[0] = 0 the representative. Every orbit has exactly K members, so the
// quotient has K^N states of the full K^(N+1).
//
// This is a symmetry of the ring variant only: guards compare counters for
// (in)equality and the effects (+1 mod K, copy) commute with rotation. The
// path variant's saturating increment does not commute, so NewPath
// advertises nothing.
func ringRotation(x []program.VarID, k int32) *verify.Symmetry {
	return &verify.Symmetry{
		Name: fmt.Sprintf("value-rotation(%d)", k),
		Canonicalize: func(st *program.State) {
			d := st.Get(x[0])
			if d == 0 {
				return
			}
			for _, id := range x {
				v := st.Get(id) - d
				if v < 0 {
					v += k
				}
				st.Set(id, v)
			}
		},
	}
}

// treeSymmetry builds the subtree-isomorphism group of a per-node tree
// program: nodes are identified from indexed variable names ("c[3]",
// "sn[3]" → node 3), two sibling subtrees are isomorphic when their
// variable signatures and child shapes match recursively, and
// canonicalization sorts each class of isomorphic sibling subtrees by its
// subtree value vector. Returns nil when the tree admits no exchange (no
// node has two isomorphic child subtrees) or when some variable does not
// fit the per-node naming scheme — advertising nothing is always sound.
func treeSymmetry(schema *program.Schema, parent []int) *verify.Symmetry {
	n := len(parent)
	if n < 2 {
		return nil
	}
	type nodeVar struct {
		base string
		id   program.VarID
	}
	perNode := make([][]nodeVar, n)
	for id := 0; id < schema.Len(); id++ {
		spec := schema.Spec(program.VarID(id))
		base, idx, ok := splitIndexed(spec.Name)
		if !ok {
			// A variable outside the name[j] scheme (reset's global "req")
			// is a fixed point of the exchange: sound as long as its role is
			// node-agnostic, which the registry's ValidateSymmetry tests
			// check exhaustively per advertising family.
			continue
		}
		if idx < 0 || idx >= n {
			return nil
		}
		perNode[idx] = append(perNode[idx], nodeVar{base: base, id: program.VarID(id)})
	}

	// Per-node variable order and signature. Cross-node alignment is by
	// base name, so isomorphic nodes exchange same-named variables.
	nodeVars := make([][]program.VarID, n)
	sig := make([]string, n)
	for j := 0; j < n; j++ {
		vars := perNode[j]
		sort.Slice(vars, func(a, b int) bool { return vars[a].base < vars[b].base })
		ids := make([]program.VarID, len(vars))
		var sb strings.Builder
		for i, v := range vars {
			ids[i] = v.id
			d := schema.Spec(v.id).Dom
			fmt.Fprintf(&sb, "%s:%d:%d:%d:%d;", v.base, d.Kind, d.Min, d.Max, len(d.Labels))
		}
		nodeVars[j] = ids
		sig[j] = sb.String()
	}

	root := -1
	children := make([][]int, n)
	for j, p := range parent {
		if p == j {
			if root >= 0 {
				return nil
			}
			root = j
			continue
		}
		if p < 0 || p >= n {
			return nil
		}
		children[p] = append(children[p], j)
	}
	if root < 0 {
		return nil
	}

	// Shape classes: two nodes share a class iff their signatures match
	// and their child class multisets match, recursively.
	shapeOf := map[string]int{}
	shape := make([]int, n)
	vecLen := make([]int, n)
	var classify func(j int) int
	classify = func(j int) int {
		ks := children[j]
		ids := make([]int, len(ks))
		vecLen[j] = len(nodeVars[j])
		for i, k := range ks {
			ids[i] = classify(k)
			vecLen[j] += vecLen[k]
		}
		sort.Ints(ids)
		key := sig[j] + fmt.Sprint(ids)
		v, ok := shapeOf[key]
		if !ok {
			v = len(shapeOf)
			shapeOf[key] = v
		}
		shape[j] = v
		return v
	}
	classify(root)

	// classPos[j] lists, per shape class of j's children with two or
	// more members, the positions in children[j] of that class — the
	// exchangeable sibling slots, fixed by the shapes alone.
	tc := &treeCanon{nodeVars: nodeVars, children: children, classPos: make([][][]int, n),
		off: make([]int, n), vecLen: vecLen, root: root}
	exchangeable := false
	for j := 0; j < n; j++ {
		byShape := map[int][]int{}
		for p, k := range children[j] {
			byShape[shape[k]] = append(byShape[shape[k]], p)
		}
		for _, pos := range byShape {
			if len(pos) >= 2 {
				tc.classPos[j] = append(tc.classPos[j], pos)
				exchangeable = true
			}
		}
		sort.Slice(tc.classPos[j], func(a, b int) bool { return tc.classPos[j][a][0] < tc.classPos[j][b][0] })
	}
	if !exchangeable {
		return nil
	}

	// Arena layout: each node's canonical subtree vector lives at a fixed
	// offset; the root's vector is the whole canonical value assignment in
	// pre-order (own variables, then children's vectors), the order of
	// tc.preorder.
	total := 0
	var layout func(j int)
	layout = func(j int) {
		tc.off[j] = total
		total += vecLen[j]
		tc.preorder = append(tc.preorder, nodeVars[j]...)
		for _, k := range children[j] {
			layout(k)
		}
	}
	layout(root)

	// Canonicalize is hot (called per state from every sharded pass), so
	// scratch arenas are pooled rather than allocated per call.
	tc.pool.New = func() any {
		return &treeScratch{arena: make([]int32, total), order: make([]int, n), members: make([]int, n)}
	}
	return &verify.Symmetry{Name: fmt.Sprintf("subtree-iso(%d)", n), Canonicalize: tc.canonicalize}
}

// treeCanon is a tree's subtree-isomorphism canonicalizer; every table
// is fixed at construction, and each call works in a pooled treeScratch.
type treeCanon struct {
	nodeVars    [][]program.VarID
	children    [][]int
	classPos    [][][]int
	off, vecLen []int
	root        int
	preorder    []program.VarID
	pool        sync.Pool
}

type treeScratch struct {
	arena          []int32
	order, members []int
}

func (tc *treeCanon) canonicalize(st *program.State) {
	sc := tc.pool.Get().(*treeScratch)
	tc.rec(sc, st, tc.root)
	for k, id := range tc.preorder {
		st.Set(id, sc.arena[k])
	}
	tc.pool.Put(sc)
}

func (tc *treeCanon) vec(sc *treeScratch, j int) []int32 {
	return sc.arena[tc.off[j] : tc.off[j]+tc.vecLen[j]]
}

// rec writes node j's canonical subtree vector. Within each isomorphism
// class the child vectors are fed in ascending lexicographic order;
// classes keep their slots (identical shapes make the exchange
// slot-compatible).
func (tc *treeCanon) rec(sc *treeScratch, st *program.State, j int) {
	v := sc.arena[tc.off[j]:tc.off[j]]
	for _, id := range tc.nodeVars[j] {
		v = append(v, st.Get(id))
	}
	ks := tc.children[j]
	for _, k := range ks {
		tc.rec(sc, st, k)
	}
	order := append(sc.order[:0], ks...)
	for _, pos := range tc.classPos[j] {
		members := sc.members[:0]
		for _, p := range pos {
			members = append(members, ks[p])
		}
		slices.SortFunc(members, func(a, b int) int { return slices.Compare(tc.vec(sc, a), tc.vec(sc, b)) })
		for i, p := range pos {
			order[p] = members[i]
		}
	}
	for _, k := range order {
		v = append(v, tc.vec(sc, k)...)
	}
}

// splitIndexed parses "base[idx]" variable names.
func splitIndexed(name string) (base string, idx int, ok bool) {
	open := strings.IndexByte(name, '[')
	if open <= 0 || !strings.HasSuffix(name, "]") {
		return "", 0, false
	}
	v, err := strconv.Atoi(name[open+1 : len(name)-1])
	if err != nil {
		return "", 0, false
	}
	return name[:open], v, true
}
