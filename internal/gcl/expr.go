package gcl

import (
	"nonmask/internal/program"
)

// scope carries the static context of one expression compilation.
type scope struct {
	c *compiler
	// params binds action/invariant parameters to their expansion values.
	params map[string]int32
	// quants binds the enclosing quantifier variables, outermost first,
	// to the value of the body copy being compiled.
	quants []quantBinding
	// reads accumulates the variables the expression may read.
	reads map[program.VarID]bool
	// dead marks an operand that is never evaluated (see compileIn).
	dead bool
}

// quantBinding is one quantifier variable and its value in the body copy
// being compiled.
type quantBinding struct {
	name string
	val  int32
}

func (s *scope) quantValue(name string) (int32, bool) {
	// Innermost binding wins.
	for i := len(s.quants) - 1; i >= 0; i-- {
		if s.quants[i].name == name {
			return s.quants[i].val, true
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

// operand is a compiled expression with its static type. When konst is
// set the expression is the constant v: evaluating it reads no state and
// cannot panic, so whatever uses it folds it in at compile time, and it
// gets a closure only where it is not folded (eval).
type operand struct {
	fn    cexpr
	t     typ
	konst bool
	v     int32
}

// constant is the operand of a compile-time value.
func constant(v int32, t typ) operand {
	return operand{t: t, konst: true, v: v}
}

// eval returns the closure that evaluates o.
func (o operand) eval() cexpr {
	if !o.konst {
		return o.fn
	}
	v := o.v
	return func(*program.State) int32 { return v }
}

// compileIn compiles e, as an operand that is never evaluated when dead
// is set: it is type-checked and declares its reads like any other, but
// gets no closures, and its result is only good for its type.
func (s *scope) compileIn(dead bool, e Expr) (operand, error) {
	was := s.dead
	s.dead = was || dead
	o, err := s.compileExpr(e)
	s.dead = was
	return o, err
}

// compileExpr compiles an expression to an operand. Constant
// sub-expressions are folded, but only where the fold leaves what the
// expression reads at runtime, and when it panics, as they were: an
// operator that fails on its constants, and an index out of range, still
// fail when evaluated.
func (s *scope) compileExpr(e Expr) (operand, error) {
	switch n := e.(type) {
	case *NumLit:
		return constant(n.Val, typInt), nil

	case *BoolLit:
		return constant(b2i(n.Val), typBool), nil

	case *VarRef:
		return s.compileVarRef(n)

	case *Unary:
		x, err := s.compileExpr(n.X)
		if err != nil {
			return operand{}, err
		}
		switch n.Op {
		case tokNot:
			if x.t != typBool {
				return operand{}, errf(n.Pos, "operator ! needs a bool operand, got %s", x.t)
			}
			if x.konst {
				return constant(b2i(x.v == 0), typBool), nil
			}
			if s.dead {
				return operand{t: typBool}, nil
			}
			x := x.eval()
			return operand{fn: func(st *program.State) int32 {
				if x(st) == 0 {
					return 1
				}
				return 0
			}, t: typBool}, nil
		case tokMinus:
			if x.t != typInt {
				return operand{}, errf(n.Pos, "unary - needs an int operand, got %s", x.t)
			}
			if x.konst {
				return constant(-x.v, typInt), nil
			}
			if s.dead {
				return operand{t: typInt}, nil
			}
			x := x.eval()
			return operand{fn: func(st *program.State) int32 { return -x(st) }, t: typInt}, nil
		default:
			return operand{}, errf(n.Pos, "unsupported unary operator")
		}

	case *Binary:
		l, err := s.compileExpr(n.L)
		if err != nil {
			return operand{}, err
		}
		// A constant left operand of && or || that decides the result
		// leaves the right one never evaluated.
		and := n.Op == tokAnd
		decided := l.konst && (and && l.v == 0 || n.Op == tokOr && l.v != 0)
		r, err := s.compileIn(decided, n.R)
		if err != nil {
			return operand{}, err
		}
		switch n.Op {
		case tokAnd, tokOr:
			if l.t != typBool || r.t != typBool {
				return operand{}, errf(n.Pos, "operator %s needs bool operands, got %s and %s", n.Op, l.t, r.t)
			}
			switch {
			case decided:
				return constant(l.v, typBool), nil
			case l.konst:
				return r, nil
			case s.dead:
				return operand{t: typBool}, nil
			}
			l, r := l.eval(), r.eval()
			if and {
				return operand{fn: func(st *program.State) int32 {
					if l(st) == 0 {
						return 0
					}
					return r(st)
				}, t: typBool}, nil
			}
			return operand{fn: func(st *program.State) int32 {
				if l(st) != 0 {
					return 1
				}
				return r(st)
			}, t: typBool}, nil

		case tokEq, tokNeq:
			// Equality is typed but polymorphic: both sides must agree.
			if l.t != r.t {
				return operand{}, errf(n.Pos, "operator %s compares %s with %s", n.Op, l.t, r.t)
			}
		case tokLt, tokLe, tokGt, tokGe, tokPlus, tokMinus, tokStar, tokSlash, tokMod:
			if l.t != typInt || r.t != typInt {
				return operand{}, errf(n.Pos, "operator %s needs int operands, got %s and %s", n.Op, l.t, r.t)
			}
		default:
			return operand{}, errf(n.Pos, "unsupported operator")
		}
		op := n.Op
		pos := n.Pos
		outType := typBool
		switch op {
		case tokPlus, tokMinus, tokStar, tokSlash, tokMod:
			outType = typInt
		}
		if l.konst && r.konst {
			if v, err := applyBinary(pos, op, l.v, r.v); err == nil {
				return constant(v, outType), nil
			}
		}
		if s.dead {
			return operand{t: outType}, nil
		}
		lf, rf := l.eval(), r.eval()
		return operand{fn: func(st *program.State) int32 {
			v, err := applyBinary(pos, op, lf(st), rf(st))
			if err != nil {
				panic(err)
			}
			return v
		}, t: outType}, nil

	case *Quant:
		return s.compileQuant(n)
	}
	return operand{}, errf(e.pos(), "unsupported expression")
}

// compileQuant unrolls a quantifier, whose bounds are constant: the body
// is compiled once per value of the bound variable, which each copy reads
// as a constant. An empty range still compiles it once, so its types are
// checked and its reads declared. A constant copy that cannot decide the
// quantifier is dropped, and one that decides it ends the unrolled list.
func (s *scope) compileQuant(n *Quant) (operand, error) {
	lo, err := s.c.constEval(n.Lo, s.params)
	if err != nil {
		return operand{}, err
	}
	hi, err := s.c.constEval(n.Hi, s.params)
	if err != nil {
		return operand{}, err
	}
	if _, shadow := s.quantValue(n.Param); shadow {
		return operand{}, errf(n.Pos, "quantifier variable %q shadows an outer quantifier", n.Param)
	}
	if _, shadow := s.params[n.Param]; shadow {
		return operand{}, errf(n.Pos, "quantifier variable %q shadows a parameter", n.Param)
	}
	count := max(int64(hi)-int64(lo)+1, 0)
	if copies := max(count, 1); !s.c.grow(copies * exprSize(n.Body)) {
		return operand{}, errf(n.Pos, "quantifier over %d..%d: %d copies of its body expand the module past its budget of %d",
			lo, hi, copies, maxExpansion)
	}
	// forall stops at the first false copy, exists at the first true one;
	// a quantifier that does not stop is the other value.
	forAll := n.ForAll
	result, decided := b2i(forAll), false
	var bodies []cexpr
	for v := int64(lo); v <= max(int64(hi), int64(lo)); v++ {
		// The empty range's type-checking copy, and every copy past the
		// one that decides the quantifier, are never evaluated.
		dead := s.dead || v-int64(lo) >= count || decided
		s.quants = append(s.quants, quantBinding{n.Param, int32(v)})
		body, err := s.compileIn(dead, n.Body)
		s.quants = s.quants[:len(s.quants)-1]
		if err != nil {
			return operand{}, err
		}
		if body.t != typBool {
			return operand{}, errf(n.Pos, "quantifier body must be bool, got %s", body.t)
		}
		switch {
		case dead:
		case !body.konst:
			bodies = append(bodies, body.eval())
		case (body.v != 0) != forAll:
			result, decided = b2i(!forAll), true
		}
	}
	if len(bodies) == 0 {
		return constant(result, typBool), nil
	}
	return operand{fn: func(st *program.State) int32 {
		for _, body := range bodies {
			if (body(st) != 0) != forAll {
				return b2i(!forAll)
			}
		}
		return result
	}, t: typBool}, nil
}

// b2i is a bool as a GCL value.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// compileVarRef resolves a name reference.
func (s *scope) compileVarRef(n *VarRef) (operand, error) {
	// Quantifier variable?
	if v, ok := s.quantValue(n.Name); ok {
		if n.Index != nil {
			return operand{}, errf(n.Pos, "quantifier variable %q is not an array", n.Name)
		}
		return constant(v, typInt), nil
	}
	// Action/invariant parameter?
	if v, ok := s.params[n.Name]; ok {
		if n.Index != nil {
			return operand{}, errf(n.Pos, "parameter %q is not an array", n.Name)
		}
		return constant(v, typInt), nil
	}
	// Scalar constant or enum label?
	if v, ok := s.c.consts[n.Name]; ok && n.Index == nil {
		return constant(v, typInt), nil
	}
	if v, ok := s.c.enums[n.Name]; ok && n.Index == nil {
		return constant(v, typInt), nil
	}
	// Constant array?
	if arr, ok := s.c.arrays[n.Name]; ok {
		if n.Index == nil {
			return operand{}, errf(n.Pos, "constant array %q used without index", n.Name)
		}
		idx, constIdx, err := s.compileIndex(n, len(arr))
		if err != nil {
			return operand{}, err
		}
		if constIdx >= 0 {
			return constant(arr[constIdx], typInt), nil
		}
		if idx.konst && idx.v >= 0 && int(idx.v) < len(arr) {
			return constant(arr[idx.v], typInt), nil
		}
		if s.dead {
			return operand{t: typInt}, nil
		}
		pos := n.Pos
		name := n.Name
		length := len(arr)
		at := idx.eval()
		return operand{fn: func(st *program.State) int32 {
			i := at(st)
			if i < 0 || int(i) >= length {
				panic(errf(pos, "index %d out of range for %q (length %d)", i, name, length))
			}
			return arr[i]
		}, t: typInt}, nil
	}
	// Program variable.
	sym, ok := s.c.vars[n.Name]
	if !ok {
		return operand{}, errf(n.Pos, "undefined name %q", n.Name)
	}
	t := typInt
	if sym.dom.Kind == program.KindBool {
		t = typBool
	}
	get := func(id program.VarID) operand {
		if s.dead {
			return operand{t: t}
		}
		return operand{fn: func(st *program.State) int32 { return st.Get(id) }, t: t}
	}
	if sym.size < 0 {
		if n.Index != nil {
			return operand{}, errf(n.Pos, "variable %q is not an array", n.Name)
		}
		s.addRead(sym.base)
		return get(sym.base), nil
	}
	if n.Index == nil {
		return operand{}, errf(n.Pos, "array %q used without index", n.Name)
	}
	idx, constIdx, err := s.compileIndex(n, sym.size)
	if err != nil {
		return operand{}, err
	}
	if constIdx >= 0 {
		id := sym.base + program.VarID(constIdx)
		s.addRead(id)
		return get(id), nil
	}
	// Dynamic index: conservatively reads the whole array, also when a
	// quantifier copy makes it constant.
	s.addReadAll(sym)
	if s.dead {
		return operand{t: t}, nil
	}
	if idx.konst && idx.v >= 0 && int(idx.v) < sym.size {
		return get(sym.base + program.VarID(idx.v)), nil
	}
	base := sym.base
	size := sym.size
	pos := n.Pos
	name := n.Name
	at := idx.eval()
	return operand{fn: func(st *program.State) int32 {
		i := at(st)
		if i < 0 || int(i) >= size {
			panic(errf(pos, "index %d out of range for %q (length %d)", i, name, size))
		}
		return st.Get(base + program.VarID(i))
	}, t: t}, nil
}

// compileIndex compiles an index expression; when the index is constant
// under the current parameters (no quantifier variables or program state),
// its value is returned as constIdx >= 0 and validated against length.
func (s *scope) compileIndex(n *VarRef, length int) (idx operand, constIdx int32, err error) {
	if s.c.constShaped(n.Index, s.params) {
		if v, cerr := s.c.constEval(n.Index, s.params); cerr == nil {
			if v < 0 || int(v) >= length {
				return operand{}, 0, errf(n.Pos, "index %d out of range for %q (length %d)", v, n.Name, length)
			}
			return operand{}, v, nil
		}
	}
	idx, err = s.compileExpr(n.Index)
	if err != nil {
		return operand{}, 0, err
	}
	if idx.t != typInt {
		return operand{}, 0, errf(n.Pos, "index must be int, got %s", idx.t)
	}
	return idx, -1, nil
}

// compilePredicate compiles a boolean expression into a named predicate.
func (c *compiler) compilePredicate(name string, e Expr, params map[string]int32) (*program.Predicate, error) {
	if !c.grow(exprSize(e)) {
		return nil, errf(e.pos(), "predicate %q expands the module past its budget of %d", name, maxExpansion)
	}
	s := &scope{c: c, params: params, reads: map[program.VarID]bool{}}
	body, err := s.compileExpr(e)
	if err != nil {
		return nil, err
	}
	if body.t != typBool {
		return nil, errf(e.pos(), "predicate %q must be bool, got %s", name, body.t)
	}
	vars := make([]program.VarID, 0, len(s.reads))
	for id := range s.reads {
		vars = append(vars, id)
	}
	eval := body.eval()
	return program.NewPredicate(name, vars, func(st *program.State) bool {
		return eval(st) != 0
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
	size := exprSize(d.Guard)
	for _, e := range d.RHS {
		size += exprSize(e)
	}
	if !c.grow(size) {
		return nil, errf(d.Pos, "action %q expands the module past its budget of %d", name, maxExpansion)
	}
	gs := &scope{c: c, params: params, reads: map[program.VarID]bool{}}
	guard, err := gs.compileExpr(d.Guard)
	if err != nil {
		return nil, err
	}
	if guard.t != typBool {
		return nil, errf(d.Guard.pos(), "guard of %q must be bool, got %s", name, guard.t)
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
		e, err := bs.compileExpr(d.RHS[i])
		if err != nil {
			return nil, err
		}
		wantBool := c.schema.Spec(id).Dom.Kind == program.KindBool
		if wantBool && e.t != typBool {
			return nil, errf(d.RHS[i].pos(), "assigning %s to bool variable in %q", e.t, name)
		}
		if !wantBool && e.t == typBool {
			return nil, errf(d.RHS[i].pos(), "assigning bool to int variable in %q", name)
		}
		rhs = append(rhs, e.eval())
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
			vals = append(vals, e(st))
		}
		for i, id := range targets {
			st.Set(id, vals[i])
		}
	}
	enabled := guard.eval()
	return program.NewAction(name, kind, readList, writeList,
		func(st *program.State) bool { return enabled(st) != 0 },
		body), nil
}
