package gcl

import (
	"fmt"

	"nonmask/internal/constraint"
	"nonmask/internal/core"
	"nonmask/internal/program"
)

// Module is a compiled gcl file.
type Module struct {
	// Name is the program name from the source.
	Name string
	// Schema declares the compiled variables.
	Schema *program.Schema
	// Program holds every compiled action (closure, convergence, fault).
	Program *program.Program
	// Set holds the compiled invariants as constraints; constraints whose
	// invariant has an establishing convergence action carry it.
	Set *constraint.Set
	// T is the fault-span (true when the source has no faultspan decl).
	T *program.Predicate
	// S is T conjoined with all invariants.
	S *program.Predicate
	// Design is the assembled candidate triple; nil when some invariant
	// lacks an establishing convergence action (the module is still
	// runnable and checkable through Program and S).
	Design *core.Design
}

// typ is the static type of an expression.
type typ int

const (
	typInt typ = iota + 1
	typBool
)

func (t typ) String() string {
	if t == typBool {
		return "bool"
	}
	return "int"
}

// cexpr is a compiled expression. Quantifiers are unrolled at compile
// time, so a quantifier variable is a constant inside each body copy.
type cexpr func(st *program.State) int32

// varSym is a declared variable or array.
type varSym struct {
	base program.VarID
	// size is the array length, or -1 for scalars.
	size int
	dom  program.Domain
}

// compiler holds symbol tables.
type compiler struct {
	file   *File
	schema *program.Schema
	consts map[string]int32
	arrays map[string][]int32 // const arrays
	enums  map[string]int32   // enum labels as global constants
	vars   map[string]*varSym
	// expanded counts what the module has unrolled to so far (see
	// maxExpansion).
	expanded int64
}

// maxExpansion bounds what one module compiles: array elements,
// parameter instances, and the expression nodes of every compiled
// declaration instance and quantifier body copy. Nested expansions
// multiply, so a short source with a huge range or a large unrolled
// body is refused at compile time instead of exhausting memory.
const maxExpansion = 1 << 16

// grow charges n units to the module's expansion budget and reports
// whether the module still fits it.
func (c *compiler) grow(n int64) bool {
	c.expanded += n
	return c.expanded <= maxExpansion
}

// exprSize counts the nodes of e that compile to code: the unit the
// expansion budget charges per compiled copy of an expression.
func exprSize(e Expr) int64 {
	switch n := e.(type) {
	case *VarRef:
		if n.Index != nil {
			return 1 + exprSize(n.Index)
		}
	case *Unary:
		return 1 + exprSize(n.X)
	case *Binary:
		return 1 + exprSize(n.L) + exprSize(n.R)
	case *Quant:
		return 1 + exprSize(n.Body)
	}
	return 1
}

// Compile type-checks and compiles a parsed file.
func Compile(f *File) (*Module, error) {
	c := &compiler{
		file:   f,
		schema: program.NewSchema(),
		consts: map[string]int32{},
		arrays: map[string][]int32{},
		enums:  map[string]int32{},
		vars:   map[string]*varSym{},
	}
	if err := c.declareConsts(); err != nil {
		return nil, err
	}
	if err := c.declareVars(); err != nil {
		return nil, err
	}
	m := &Module{Name: f.Name, Schema: c.schema}

	// Fault span.
	m.T = program.True()
	if f.Span != nil {
		pred, err := c.compilePredicate("T", f.Span.Body, nil)
		if err != nil {
			return nil, err
		}
		m.T = pred
	}

	// Invariants: expand parameter families into individual constraints.
	type invKey struct {
		name  string
		param int32
	}
	constraintOf := map[invKey]*constraint.Constraint{}
	set := constraint.NewSet()
	for _, inv := range f.Invs {
		insts, err := c.expand(inv.Pos, "invariant", inv.Name, inv.Param, inv.Lo, inv.Hi)
		if err != nil {
			return nil, err
		}
		for _, pv := range insts {
			env := map[string]int32{}
			label := inv.Name
			if inv.Param != "" {
				env[inv.Param] = pv
				label = fmt.Sprintf("%s[%d]", inv.Name, pv)
			}
			pred, err := c.compilePredicate(label, inv.Body, env)
			if err != nil {
				return nil, err
			}
			cst := &constraint.Constraint{Pred: pred, Layer: inv.Layer}
			set.Add(cst)
			constraintOf[invKey{inv.Name, pv}] = cst
		}
	}
	m.Set = set

	// Layer targets.
	for _, td := range f.Targets {
		pred, err := c.compilePredicate(fmt.Sprintf("target[layer %d]", td.Layer), td.Body, nil)
		if err != nil {
			return nil, err
		}
		set.SetTarget(td.Layer, pred)
	}

	// Actions.
	prog := program.New(f.Name, c.schema)
	for _, act := range f.Actions {
		insts, err := c.expand(act.Pos, "action", act.Name, act.Param, act.Lo, act.Hi)
		if err != nil {
			return nil, err
		}
		kind := program.Closure
		switch act.Kind {
		case "convergence":
			kind = program.Convergence
		case "fault":
			kind = program.Fault
		}
		if act.Establishes != "" && kind != program.Convergence {
			return nil, errf(act.Pos, "action %q: only convergence actions may establish an invariant", act.Name)
		}
		for _, pv := range insts {
			env := map[string]int32{}
			label := act.Name
			if act.Param != "" {
				env[act.Param] = pv
				label = fmt.Sprintf("%s(%d)", act.Name, pv)
			}
			a, err := c.compileAction(label, kind, act, env)
			if err != nil {
				return nil, err
			}
			prog.Add(a)
			if act.Establishes != "" {
				cst, ok := constraintOf[invKey{act.Establishes, pv}]
				if !ok {
					return nil, errf(act.Pos,
						"action %q establishes unknown invariant instance %s[%d]",
						act.Name, act.Establishes, pv)
				}
				if cst.Action != nil {
					return nil, errf(act.Pos,
						"invariant instance %s[%d] established by two actions",
						act.Establishes, pv)
				}
				cst.Action = a
			}
		}
	}
	m.Program = prog
	if err := prog.Validate(); err != nil {
		return nil, err
	}

	m.S = program.And("S("+f.Name+")", m.T, set.TargetConjunction(""))

	// Assemble a core.Design when the pairing is complete.
	if set.Len() > 0 && set.Validate() == nil {
		b := core.NewDesignWithSchema(f.Name, c.schema)
		b.FaultSpan(m.T)
		for _, a := range prog.OfKind(program.Closure) {
			b.Closure(a)
		}
		for _, cst := range set.Constraints {
			b.Constraint(cst.Layer, cst.Pred, cst.Action)
		}
		for _, t := range set.Targets {
			b.Target(t.Layer, t.Target)
		}
		d, err := b.Build()
		if err != nil {
			return nil, errf(Pos{}, "assembling design: %v", err)
		}
		m.Design = d
	}
	return m, nil
}

// Load parses and compiles gcl source.
func Load(src string) (*Module, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f)
}

// declareConsts evaluates const declarations in order and binds enum
// labels from variable declarations as constants.
func (c *compiler) declareConsts() error {
	for _, d := range c.file.Consts {
		if _, dup := c.consts[d.Name]; dup {
			return errf(d.Pos, "constant %q redeclared", d.Name)
		}
		if _, dup := c.arrays[d.Name]; dup {
			return errf(d.Pos, "constant %q redeclared", d.Name)
		}
		if d.Value != nil {
			v, err := c.constEval(d.Value, nil)
			if err != nil {
				return err
			}
			c.consts[d.Name] = v
			continue
		}
		vals := make([]int32, len(d.Elems))
		for i, e := range d.Elems {
			v, err := c.constEval(e, nil)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		c.arrays[d.Name] = vals
	}
	// Enum labels: first binding wins; conflicting positions are errors.
	for _, d := range c.file.Vars {
		for i, label := range d.Type.Labels {
			if prev, ok := c.enums[label]; ok {
				if prev != int32(i) {
					return errf(d.Type.Pos,
						"enum label %q bound to %d here but %d earlier", label, i, prev)
				}
				continue
			}
			if _, clash := c.consts[label]; clash {
				return errf(d.Type.Pos, "enum label %q collides with a constant", label)
			}
			c.enums[label] = int32(i)
		}
	}
	return nil
}

func (c *compiler) declareVars() error {
	for _, d := range c.file.Vars {
		if _, dup := c.vars[d.Name]; dup {
			return errf(d.Pos, "variable %q redeclared", d.Name)
		}
		if _, clash := c.consts[d.Name]; clash {
			return errf(d.Pos, "variable %q collides with a constant", d.Name)
		}
		if _, clash := c.enums[d.Name]; clash {
			return errf(d.Pos, "variable %q collides with an enum label", d.Name)
		}
		dom, err := c.domainOf(d.Type)
		if err != nil {
			return err
		}
		sym := &varSym{size: -1, dom: dom}
		if d.Size != nil {
			n, err := c.constEval(d.Size, nil)
			if err != nil {
				return err
			}
			if n <= 0 {
				return errf(d.Pos, "array %q has non-positive size %d", d.Name, n)
			}
			if !c.grow(int64(n)) {
				return errf(d.Pos, "array %q of %d elements expands the module past its budget of %d", d.Name, n, maxExpansion)
			}
			ids, err := c.schema.DeclareArray(d.Name, int(n), dom)
			if err != nil {
				return errf(d.Pos, "%v", err)
			}
			sym.base = ids[0]
			sym.size = int(n)
		} else {
			id, err := c.schema.Declare(d.Name, dom)
			if err != nil {
				return errf(d.Pos, "%v", err)
			}
			sym.base = id
		}
		c.vars[d.Name] = sym
	}
	return nil
}

func (c *compiler) domainOf(t TypeExpr) (program.Domain, error) {
	switch {
	case t.Bool:
		return program.Bool(), nil
	case len(t.Labels) > 0:
		return program.Enum(t.Labels...), nil
	default:
		lo, err := c.constEval(t.Lo, nil)
		if err != nil {
			return program.Domain{}, err
		}
		hi, err := c.constEval(t.Hi, nil)
		if err != nil {
			return program.Domain{}, err
		}
		if hi < lo {
			return program.Domain{}, errf(t.Pos, "empty range %d..%d", lo, hi)
		}
		return program.IntRange(lo, hi), nil
	}
}

// constShaped reports whether e is built only from literals and names
// constEval can fold under env: bound parameters, constants, enum labels
// and constant arrays indexed by such expressions. It formats no error,
// so callers probing an expression that is usually not constant (an index
// naming a quantifier variable or program state) skip constEval's
// positioned error. constEval may still fail on a constant-shaped
// expression (division by zero, an index out of range).
func (c *compiler) constShaped(e Expr, env map[string]int32) bool {
	switch n := e.(type) {
	case *NumLit, *BoolLit:
		return true
	case *VarRef:
		if n.Index != nil {
			_, ok := c.arrays[n.Name]
			return ok && c.constShaped(n.Index, env)
		}
		_, inEnv := env[n.Name]
		_, isConst := c.consts[n.Name]
		_, isEnum := c.enums[n.Name]
		return inEnv || isConst || isEnum
	case *Unary:
		return c.constShaped(n.X, env)
	case *Binary:
		return c.constShaped(n.L, env) && c.constShaped(n.R, env)
	}
	return false
}

// constEval evaluates an expression that must not read program variables.
// env binds action/invariant parameters.
func (c *compiler) constEval(e Expr, env map[string]int32) (int32, error) {
	switch n := e.(type) {
	case *NumLit:
		return n.Val, nil
	case *BoolLit:
		if n.Val {
			return 1, nil
		}
		return 0, nil
	case *VarRef:
		if v, ok := env[n.Name]; ok && n.Index == nil {
			return v, nil
		}
		if v, ok := c.consts[n.Name]; ok && n.Index == nil {
			return v, nil
		}
		if v, ok := c.enums[n.Name]; ok && n.Index == nil {
			return v, nil
		}
		if arr, ok := c.arrays[n.Name]; ok {
			if n.Index == nil {
				return 0, errf(n.Pos, "constant array %q used without index", n.Name)
			}
			idx, err := c.constEval(n.Index, env)
			if err != nil {
				return 0, err
			}
			if idx < 0 || int(idx) >= len(arr) {
				return 0, errf(n.Pos, "index %d out of range for %q (length %d)", idx, n.Name, len(arr))
			}
			return arr[idx], nil
		}
		if _, isVar := c.vars[n.Name]; isVar {
			return 0, errf(n.Pos, "variable %q not allowed in constant expression", n.Name)
		}
		return 0, errf(n.Pos, "undefined name %q", n.Name)
	case *Unary:
		v, err := c.constEval(n.X, env)
		if err != nil {
			return 0, err
		}
		if n.Op == tokMinus {
			return -v, nil
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case *Binary:
		l, err := c.constEval(n.L, env)
		if err != nil {
			return 0, err
		}
		r, err := c.constEval(n.R, env)
		if err != nil {
			return 0, err
		}
		return applyBinary(n.Pos, n.Op, l, r)
	default:
		return 0, errf(e.pos(), "expression not constant")
	}
}

func applyBinary(pos Pos, op tokenKind, l, r int32) (int32, error) {
	switch op {
	case tokPlus:
		return l + r, nil
	case tokMinus:
		return l - r, nil
	case tokStar:
		return l * r, nil
	case tokSlash:
		if r == 0 {
			return 0, errf(pos, "division by zero")
		}
		return l / r, nil
	case tokMod:
		if r == 0 {
			return 0, errf(pos, "mod by zero")
		}
		v := l % r
		if v < 0 {
			v += r
		}
		return v, nil
	case tokEq:
		return b2i(l == r), nil
	case tokNeq:
		return b2i(l != r), nil
	case tokLt:
		return b2i(l < r), nil
	case tokLe:
		return b2i(l <= r), nil
	case tokGt:
		return b2i(l > r), nil
	case tokGe:
		return b2i(l >= r), nil
	case tokAnd:
		return b2i(l != 0 && r != 0), nil
	case tokOr:
		return b2i(l != 0 || r != 0), nil
	default:
		return 0, errf(pos, "unsupported operator %s", op)
	}
}

// expand enumerates a parameter range (or the single unparameterized
// instance, signalled by an empty param name) of the declaration kind
// name, charging its instances to the module's expansion budget.
func (c *compiler) expand(pos Pos, kind, name, param string, lo, hi Expr) ([]int32, error) {
	if param == "" {
		return []int32{0}, nil
	}
	loV, err := c.constEval(lo, nil)
	if err != nil {
		return nil, err
	}
	hiV, err := c.constEval(hi, nil)
	if err != nil {
		return nil, err
	}
	if hiV < loV {
		return nil, errf(pos, "empty parameter range %d..%d", loV, hiV)
	}
	n := int64(hiV) - int64(loV) + 1
	if !c.grow(n) {
		return nil, errf(pos, "%s %q: parameter range %d..%d expands the module past its budget of %d",
			kind, name, loV, hiV, maxExpansion)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = loV + int32(i)
	}
	return out, nil
}
