package program

import (
	"fmt"
	"math/rand"
	"strings"
)

// ActionKind classifies actions per the paper's design method (Section 3):
// closure actions perform the intended computation when the invariant holds;
// convergence actions reestablish violated constraints; fault actions model
// the faults themselves ("all classes of faults can be represented as
// actions that change the program state").
type ActionKind int

// Action kinds. They start at one so the zero value is detectably unset.
const (
	Closure ActionKind = iota + 1
	Convergence
	Fault
)

// String returns a human-readable kind name.
func (k ActionKind) String() string {
	switch k {
	case Closure:
		return "closure"
	case Convergence:
		return "convergence"
	case Fault:
		return "fault"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one guarded command: <guard> -> <statement>. Reads and Writes
// are the declared footprint: Guard may read only Reads; Body may read only
// Reads and write only Writes. Written variables are conventionally also
// listed in Reads when the body reads their old value.
//
// Honest footprints are what make constraint graphs (paper Section 4)
// meaningful, and the model checker (internal/verify) builds its successor
// index from them. It trusts Reads, for guards and bodies alike: an
// action's guard is re-evaluated, and its successor re-encoded, only when
// a variable of its footprint (Reads and Writes) changes, at every state
// when Reads is empty; in between, its successor is the same index delta
// from each state. A fresh evaluation of every guard and every enabled
// successor once per sweep chunk spot-checks that trust. It checks Writes
// wherever a body runs: each successor is encoded from the changes to
// Writes, and a body that assigns anything else there is caught and the
// space refused. AuditAction checks both dynamically on random states.
type Action struct {
	Name  string
	Kind  ActionKind
	Reads []VarID
	// Writes is the set of variables the body may assign.
	Writes []VarID
	Guard  func(*State) bool
	Body   func(*State)
}

// NewAction builds an action with a canonicalized footprint. The checker
// trusts reads and checks writes (see Action): a guard or body that reads
// a variable missing from reads can be evaluated on stale values, and is
// caught only by a spot check.
func NewAction(name string, kind ActionKind, reads, writes []VarID,
	guard func(*State) bool, body func(*State)) *Action {
	r := make([]VarID, len(reads))
	copy(r, reads)
	w := make([]VarID, len(writes))
	copy(w, writes)
	return &Action{
		Name:   name,
		Kind:   kind,
		Reads:  SortVarIDs(r),
		Writes: SortVarIDs(w),
		Guard:  guard,
		Body:   body,
	}
}

// Enabled reports whether the action's guard holds at s (paper Section 2).
func (a *Action) Enabled(s *State) bool { return a.Guard(s) }

// Apply executes the action's statement on a copy of s and returns the
// copy. It does not check the guard; callers that model execution steps
// must check Enabled first.
func (a *Action) Apply(s *State) *State {
	next := s.Clone()
	a.Body(next)
	return next
}

// ApplyInto executes the action's statement on a copy of src placed in
// dst, avoiding Apply's per-call allocation. src and dst must be states of
// the same schema; dst is overwritten. It is the hot-loop form for loops
// that need the successor as a state of its own (canonicalized, enqueued
// or compared); a loop that needs only its index uses Codec.Successor.
func (a *Action) ApplyInto(src, dst *State) {
	dst.CopyFrom(src)
	a.Body(dst)
}

// Step executes the action if enabled. The boolean result reports whether
// the action was enabled (and hence executed).
func (a *Action) Step(s *State) (*State, bool) {
	if !a.Guard(s) {
		return s, false
	}
	return a.Apply(s), true
}

// Footprint returns the union of the action's reads and writes.
func (a *Action) Footprint() []VarID {
	all := make([]VarID, 0, len(a.Reads)+len(a.Writes))
	all = append(all, a.Reads...)
	all = append(all, a.Writes...)
	return SortVarIDs(all)
}

// String renders the action as "name: kind(reads -> writes)".
func (a *Action) String() string {
	return fmt.Sprintf("%s [%s]", a.Name, a.Kind)
}

// Program is a finite set of variables and a finite set of actions
// (paper Section 2).
type Program struct {
	Name    string
	Schema  *Schema
	Actions []*Action
}

// New returns an empty program over the given schema.
func New(name string, schema *Schema) *Program {
	return &Program{Name: name, Schema: schema}
}

// Add appends actions to the program and returns the program for chaining.
func (p *Program) Add(actions ...*Action) *Program {
	p.Actions = append(p.Actions, actions...)
	return p
}

// OfKind returns the actions of the given kind, in program order.
func (p *Program) OfKind(k ActionKind) []*Action {
	var out []*Action
	for _, a := range p.Actions {
		if a.Kind == k {
			out = append(out, a)
		}
	}
	return out
}

// Enabled returns the actions enabled at s, in program order.
func (p *Program) Enabled(s *State) []*Action {
	var out []*Action
	for _, a := range p.Actions {
		if a.Guard(s) {
			out = append(out, a)
		}
	}
	return out
}

// EnabledCount returns the number of actions enabled at s without
// allocating.
func (p *Program) EnabledCount(s *State) int {
	n := 0
	for _, a := range p.Actions {
		if a.Guard(s) {
			n++
		}
	}
	return n
}

// Union returns a new program containing the actions of p followed by the
// given extra actions — the paper's augmented program "p ∪ {ca.1 ... ca.n}".
func (p *Program) Union(name string, extra ...*Action) *Program {
	q := New(name, p.Schema)
	q.Actions = append(q.Actions, p.Actions...)
	q.Actions = append(q.Actions, extra...)
	return q
}

// Validate performs static sanity checks: a nonempty schema, actions with
// guards and bodies, footprints referencing declared variables, and unique
// action names.
func (p *Program) Validate() error {
	if p.Schema == nil || p.Schema.Len() == 0 {
		return fmt.Errorf("program %q: empty schema", p.Name)
	}
	names := make(map[string]bool, len(p.Actions))
	for i, a := range p.Actions {
		if a.Name == "" {
			return fmt.Errorf("program %q: action %d has no name", p.Name, i)
		}
		if names[a.Name] {
			return fmt.Errorf("program %q: duplicate action name %q", p.Name, a.Name)
		}
		names[a.Name] = true
		if a.Guard == nil || a.Body == nil {
			return fmt.Errorf("program %q: action %q lacks guard or body", p.Name, a.Name)
		}
		if a.Kind != Closure && a.Kind != Convergence && a.Kind != Fault {
			return fmt.Errorf("program %q: action %q has invalid kind %d", p.Name, a.Name, int(a.Kind))
		}
		for _, id := range a.Footprint() {
			if int(id) < 0 || int(id) >= p.Schema.Len() {
				return fmt.Errorf("program %q: action %q references undeclared variable %d",
					p.Name, a.Name, id)
			}
		}
	}
	return nil
}

// AuditAction dynamically checks an action's declared footprint on n random
// states: the body must leave all non-Write variables unchanged, and the
// guard and body must be insensitive to the values of non-Read variables.
// It returns the first violation found, or nil.
func AuditAction(schema *Schema, a *Action, rng *rand.Rand, n int) error {
	writes := make(map[VarID]bool, len(a.Writes))
	for _, id := range a.Writes {
		writes[id] = true
	}
	reads := make(map[VarID]bool, len(a.Reads))
	for _, id := range a.Reads {
		reads[id] = true
	}
	for trial := 0; trial < n; trial++ {
		s := randomState(schema, rng)
		// Bodies are only ever executed when the guard holds; an action may
		// legitimately leave the domain if applied from a state where it is
		// disabled, so the audit respects guards throughout.
		enabled := a.Guard(s)
		var next *State
		if enabled {
			// Writes audit: body changes only declared writes.
			next = a.Apply(s)
			for id := 0; id < schema.Len(); id++ {
				if next.vals[id] != s.vals[id] && !writes[VarID(id)] {
					return fmt.Errorf("action %q wrote undeclared variable %s",
						a.Name, schema.Spec(VarID(id)).Name)
				}
			}
		}
		// Reads audit: perturb one non-read variable; guard result and the
		// projection of the body's effect onto Writes must not change.
		if schema.Len() == 0 {
			continue
		}
		id := VarID(rng.Intn(schema.Len()))
		if reads[id] || writes[id] {
			continue
		}
		dom := schema.Spec(id).Dom
		if dom.Size() < 2 {
			continue
		}
		perturbed := s.Clone()
		for {
			v := dom.Min + int32(rng.Int63n(dom.Size()))
			if v != s.vals[id] {
				perturbed.vals[id] = v
				break
			}
		}
		if enabled != a.Guard(perturbed) {
			return fmt.Errorf("action %q guard reads undeclared variable %s",
				a.Name, schema.Spec(id).Name)
		}
		if !enabled {
			continue
		}
		pnext := a.Apply(perturbed)
		for _, w := range a.Writes {
			if pnext.vals[w] != next.vals[w] {
				return fmt.Errorf("action %q body reads undeclared variable %s",
					a.Name, schema.Spec(id).Name)
			}
		}
	}
	return nil
}

// AuditPredicate dynamically checks a predicate's declared support on n
// random states: perturbing a variable outside Vars must not change the
// predicate's value.
func AuditPredicate(schema *Schema, p *Predicate, rng *rand.Rand, n int) error {
	if p == nil {
		return nil
	}
	support := make(map[VarID]bool, len(p.Vars))
	for _, id := range p.Vars {
		support[id] = true
	}
	for trial := 0; trial < n; trial++ {
		s := randomState(schema, rng)
		if schema.Len() == 0 {
			continue
		}
		id := VarID(rng.Intn(schema.Len()))
		if support[id] {
			continue
		}
		dom := schema.Spec(id).Dom
		if dom.Size() < 2 {
			continue
		}
		perturbed := s.Clone()
		for {
			v := dom.Min + int32(rng.Int63n(dom.Size()))
			if v != s.vals[id] {
				perturbed.vals[id] = v
				break
			}
		}
		if p.Eval(s) != p.Eval(perturbed) {
			return fmt.Errorf("predicate %q reads undeclared variable %s",
				p.Name, schema.Spec(id).Name)
		}
	}
	return nil
}

// Audit runs AuditAction over every action of the program.
func (p *Program) Audit(rng *rand.Rand, trialsPerAction int) error {
	for _, a := range p.Actions {
		if err := AuditAction(p.Schema, a, rng, trialsPerAction); err != nil {
			return err
		}
	}
	return nil
}

// randomState draws a uniformly random state of the schema.
func randomState(schema *Schema, rng *rand.Rand) *State {
	st := schema.NewState()
	for i := 0; i < schema.Len(); i++ {
		dom := schema.Spec(VarID(i)).Dom
		st.vals[i] = dom.Min + int32(rng.Int63n(dom.Size()))
	}
	return st
}

// RandomState draws a uniformly random state of the schema. It is the
// exported form of the sampler used by the audits, shared by fault
// injectors and simulation harnesses.
func RandomState(schema *Schema, rng *rand.Rand) *State {
	return randomState(schema, rng)
}

// DescribeActions renders a one-line-per-action listing of the program,
// grouped by kind, for CLI output.
func (p *Program) DescribeActions() string {
	var b strings.Builder
	for _, kind := range []ActionKind{Closure, Convergence, Fault} {
		actions := p.OfKind(kind)
		if len(actions) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s actions (%d):\n", kind, len(actions))
		for _, a := range actions {
			fmt.Fprintf(&b, "  %s\n", a.Name)
		}
	}
	return b.String()
}
