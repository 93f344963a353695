package gcl

import (
	"nonmask/internal/program"
)

// scope carries the static context of one expression compilation.
type scope struct {
	c *compiler
	// params binds action/invariant parameters to their expansion values.
	params map[string]int32
	// quants maps quantifier variable names to stack depths.
	quants []string
	// reads accumulates the variables the expression may read.
	reads map[program.VarID]bool
}

func (s *scope) quantDepth(name string) (int, bool) {
	// Innermost binding wins.
	for i := len(s.quants) - 1; i >= 0; i-- {
		if s.quants[i] == name {
			return i, true
		}
	}
	return 0, false
}

func (s *scope) addRead(id program.VarID) { s.reads[id] = true }

func (s *scope) addReadAll(sym *varSym) {
	n := sym.size
	if n < 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		s.reads[sym.base+program.VarID(i)] = true
	}
}

// compileExpr compiles an expression to a closure and its static type.
func (s *scope) compileExpr(e Expr) (cexpr, typ, error) {
	switch n := e.(type) {
	case *NumLit:
		v := n.Val
		return func(*program.State, []int32) int32 { return v }, typInt, nil

	case *BoolLit:
		v := int32(0)
		if n.Val {
			v = 1
		}
		return func(*program.State, []int32) int32 { return v }, typBool, nil

	case *VarRef:
		return s.compileVarRef(n, false)

	case *Unary:
		x, xt, err := s.compileExpr(n.X)
		if err != nil {
			return nil, 0, err
		}
		switch n.Op {
		case tokNot:
			if xt != typBool {
				return nil, 0, errf(n.Pos, "operator ! needs a bool operand, got %s", xt)
			}
			return func(st *program.State, q []int32) int32 {
				if x(st, q) == 0 {
					return 1
				}
				return 0
			}, typBool, nil
		case tokMinus:
			if xt != typInt {
				return nil, 0, errf(n.Pos, "unary - needs an int operand, got %s", xt)
			}
			return func(st *program.State, q []int32) int32 { return -x(st, q) }, typInt, nil
		default:
			return nil, 0, errf(n.Pos, "unsupported unary operator")
		}

	case *Binary:
		l, lt, err := s.compileExpr(n.L)
		if err != nil {
			return nil, 0, err
		}
		r, rt, err := s.compileExpr(n.R)
		if err != nil {
			return nil, 0, err
		}
		switch n.Op {
		case tokAnd, tokOr:
			if lt != typBool || rt != typBool {
				return nil, 0, errf(n.Pos, "operator %s needs bool operands, got %s and %s", n.Op, lt, rt)
			}
			if n.Op == tokAnd {
				return func(st *program.State, q []int32) int32 {
					if l(st, q) == 0 {
						return 0
					}
					return r(st, q)
				}, typBool, nil
			}
			return func(st *program.State, q []int32) int32 {
				if l(st, q) != 0 {
					return 1
				}
				return r(st, q)
			}, typBool, nil

		case tokEq, tokNeq:
			// Equality is typed but polymorphic: both sides must agree.
			if lt != rt {
				return nil, 0, errf(n.Pos, "operator %s compares %s with %s", n.Op, lt, rt)
			}
		case tokLt, tokLe, tokGt, tokGe, tokPlus, tokMinus, tokStar, tokSlash, tokMod:
			if lt != typInt || rt != typInt {
				return nil, 0, errf(n.Pos, "operator %s needs int operands, got %s and %s", n.Op, lt, rt)
			}
		default:
			return nil, 0, errf(n.Pos, "unsupported operator")
		}
		op := n.Op
		pos := n.Pos
		outType := typBool
		switch op {
		case tokPlus, tokMinus, tokStar, tokSlash, tokMod:
			outType = typInt
		}
		return func(st *program.State, q []int32) int32 {
			v, err := applyBinary(pos, op, l(st, q), r(st, q))
			if err != nil {
				panic(err)
			}
			return v
		}, outType, nil

	case *Quant:
		lo, err := s.c.constEval(n.Lo, s.params)
		if err != nil {
			return nil, 0, err
		}
		hi, err := s.c.constEval(n.Hi, s.params)
		if err != nil {
			return nil, 0, err
		}
		if _, shadow := s.quantDepth(n.Param); shadow {
			return nil, 0, errf(n.Pos, "quantifier variable %q shadows an outer quantifier", n.Param)
		}
		if _, shadow := s.params[n.Param]; shadow {
			return nil, 0, errf(n.Pos, "quantifier variable %q shadows a parameter", n.Param)
		}
		s.quants = append(s.quants, n.Param)
		body, bt, err := s.compileExpr(n.Body)
		s.quants = s.quants[:len(s.quants)-1]
		if err != nil {
			return nil, 0, err
		}
		if bt != typBool {
			return nil, 0, errf(n.Pos, "quantifier body must be bool, got %s", bt)
		}
		forAll := n.ForAll
		return func(st *program.State, q []int32) int32 {
			q = append(q, 0)
			for v := lo; v <= hi; v++ {
				q[len(q)-1] = v
				b := body(st, q) != 0
				if forAll && !b {
					return 0
				}
				if !forAll && b {
					return 1
				}
			}
			if forAll {
				return 1
			}
			return 0
		}, typBool, nil
	}
	return nil, 0, errf(e.pos(), "unsupported expression")
}

// compileVarRef resolves a name reference. When write is true the name must
// be a program variable with a parameter-constant index, and the resolved
// variable ID is returned via the second closure mechanism (see
// resolveLValue).
func (s *scope) compileVarRef(n *VarRef, write bool) (cexpr, typ, error) {
	// Quantifier variable?
	if depth, ok := s.quantDepth(n.Name); ok {
		if n.Index != nil {
			return nil, 0, errf(n.Pos, "quantifier variable %q is not an array", n.Name)
		}
		return func(_ *program.State, q []int32) int32 { return q[depth] }, typInt, nil
	}
	// Action/invariant parameter?
	if v, ok := s.params[n.Name]; ok {
		if n.Index != nil {
			return nil, 0, errf(n.Pos, "parameter %q is not an array", n.Name)
		}
		return func(*program.State, []int32) int32 { return v }, typInt, nil
	}
	// Scalar constant or enum label?
	if v, ok := s.c.consts[n.Name]; ok && n.Index == nil {
		return func(*program.State, []int32) int32 { return v }, typInt, nil
	}
	if v, ok := s.c.enums[n.Name]; ok && n.Index == nil {
		return func(*program.State, []int32) int32 { return v }, typInt, nil
	}
	// Constant array?
	if arr, ok := s.c.arrays[n.Name]; ok {
		if n.Index == nil {
			return nil, 0, errf(n.Pos, "constant array %q used without index", n.Name)
		}
		idx, constIdx, err := s.compileIndex(n, len(arr))
		if err != nil {
			return nil, 0, err
		}
		if constIdx >= 0 {
			v := arr[constIdx]
			return func(*program.State, []int32) int32 { return v }, typInt, nil
		}
		pos := n.Pos
		name := n.Name
		length := len(arr)
		return func(st *program.State, q []int32) int32 {
			i := idx(st, q)
			if i < 0 || int(i) >= length {
				panic(errf(pos, "index %d out of range for %q (length %d)", i, name, length))
			}
			return arr[i]
		}, typInt, nil
	}
	// Program variable.
	sym, ok := s.c.vars[n.Name]
	if !ok {
		return nil, 0, errf(n.Pos, "undefined name %q", n.Name)
	}
	t := typInt
	if sym.dom.Kind == program.KindBool {
		t = typBool
	}
	if sym.size < 0 {
		if n.Index != nil {
			return nil, 0, errf(n.Pos, "variable %q is not an array", n.Name)
		}
		id := sym.base
		s.addRead(id)
		return func(st *program.State, _ []int32) int32 { return st.Get(id) }, t, nil
	}
	if n.Index == nil {
		return nil, 0, errf(n.Pos, "array %q used without index", n.Name)
	}
	idx, constIdx, err := s.compileIndex(n, sym.size)
	if err != nil {
		return nil, 0, err
	}
	if constIdx >= 0 {
		id := sym.base + program.VarID(constIdx)
		s.addRead(id)
		return func(st *program.State, _ []int32) int32 { return st.Get(id) }, t, nil
	}
	// Dynamic index: conservatively reads the whole array.
	s.addReadAll(sym)
	base := sym.base
	size := sym.size
	pos := n.Pos
	name := n.Name
	return func(st *program.State, q []int32) int32 {
		i := idx(st, q)
		if i < 0 || int(i) >= size {
			panic(errf(pos, "index %d out of range for %q (length %d)", i, name, size))
		}
		return st.Get(base + program.VarID(i))
	}, t, nil
}

// compileIndex compiles an index expression; when the index is constant
// under the current parameters (no quantifier variables or program state),
// its value is returned as constIdx >= 0 and validated against length.
func (s *scope) compileIndex(n *VarRef, length int) (idx cexpr, constIdx int32, err error) {
	if v, cerr := s.c.constEval(n.Index, s.params); cerr == nil {
		if v < 0 || int(v) >= length {
			return nil, 0, errf(n.Pos, "index %d out of range for %q (length %d)", v, n.Name, length)
		}
		return nil, v, nil
	}
	e, t, err := s.compileExpr(n.Index)
	if err != nil {
		return nil, 0, err
	}
	if t != typInt {
		return nil, 0, errf(n.Pos, "index must be int, got %s", t)
	}
	return e, -1, nil
}

// compilePredicate compiles a boolean expression into a named predicate.
func (c *compiler) compilePredicate(name string, e Expr, params map[string]int32) (*program.Predicate, error) {
	s := &scope{c: c, params: params, reads: map[program.VarID]bool{}}
	body, t, err := s.compileExpr(e)
	if err != nil {
		return nil, err
	}
	if t != typBool {
		return nil, errf(e.pos(), "predicate %q must be bool, got %s", name, t)
	}
	vars := make([]program.VarID, 0, len(s.reads))
	for id := range s.reads {
		vars = append(vars, id)
	}
	return program.NewPredicate(name, vars, func(st *program.State) bool {
		return body(st, nil) != 0
	}), nil
}

// resolveLValue resolves an assignment target to a concrete variable ID.
// LValue indices must be constant under the action's parameters.
func (s *scope) resolveLValue(n *VarRef) (program.VarID, error) {
	sym, ok := s.c.vars[n.Name]
	if !ok {
		return 0, errf(n.Pos, "undefined variable %q in assignment", n.Name)
	}
	if sym.size < 0 {
		if n.Index != nil {
			return 0, errf(n.Pos, "variable %q is not an array", n.Name)
		}
		return sym.base, nil
	}
	if n.Index == nil {
		return 0, errf(n.Pos, "array %q assigned without index", n.Name)
	}
	v, err := s.c.constEval(n.Index, s.params)
	if err != nil {
		return 0, errf(n.Pos, "assignment index must be constant: %v", err)
	}
	if v < 0 || int(v) >= sym.size {
		return 0, errf(n.Pos, "index %d out of range for %q (length %d)", v, n.Name, sym.size)
	}
	return sym.base + program.VarID(v), nil
}

// compileAction compiles one expanded action instance.
func (c *compiler) compileAction(name string, kind program.ActionKind,
	d *ActionDecl, params map[string]int32) (*program.Action, error) {
	gs := &scope{c: c, params: params, reads: map[program.VarID]bool{}}
	guard, gt, err := gs.compileExpr(d.Guard)
	if err != nil {
		return nil, err
	}
	if gt != typBool {
		return nil, errf(d.Guard.pos(), "guard of %q must be bool, got %s", name, gt)
	}

	bs := &scope{c: c, params: params, reads: map[program.VarID]bool{}}
	var targets []program.VarID
	var rhs []cexpr
	for i, lv := range d.LHS {
		id, err := bs.resolveLValue(lv)
		if err != nil {
			return nil, err
		}
		for _, prev := range targets {
			if prev == id {
				return nil, errf(lv.Pos, "variable assigned twice in action %q", name)
			}
		}
		targets = append(targets, id)
		e, et, err := bs.compileExpr(d.RHS[i])
		if err != nil {
			return nil, err
		}
		wantBool := c.schema.Spec(id).Dom.Kind == program.KindBool
		if wantBool && et != typBool {
			return nil, errf(d.RHS[i].pos(), "assigning %s to bool variable in %q", et, name)
		}
		if !wantBool && et == typBool {
			return nil, errf(d.RHS[i].pos(), "assigning bool to int variable in %q", name)
		}
		rhs = append(rhs, e)
	}

	reads := map[program.VarID]bool{}
	for id := range gs.reads {
		reads[id] = true
	}
	for id := range bs.reads {
		reads[id] = true
	}
	readList := make([]program.VarID, 0, len(reads))
	for id := range reads {
		readList = append(readList, id)
	}
	writeList := append([]program.VarID(nil), targets...)

	body := func(st *program.State) {
		// Parallel assignment: evaluate all RHS against the old state. The
		// values stay on the stack for up to len(buf) targets.
		var buf [16]int32
		vals := buf[:0]
		for _, e := range rhs {
			vals = append(vals, e(st, nil))
		}
		for i, id := range targets {
			st.Set(id, vals[i])
		}
	}
	return program.NewAction(name, kind, readList, writeList,
		func(st *program.State) bool { return guard(st, nil) != 0 },
		body), nil
}
