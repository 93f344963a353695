package verify

import (
	"context"
	"fmt"
	"sort"

	"nonmask/internal/program"
)

// Symmetry is a per-protocol canonicalization hook: the handle by which a
// program advertises a symmetry group of its state space (DESIGN §13).
// The quotient tier (SpaceQuotient, or the SpaceAuto ladder once the full
// CSR busts its budget) runs enumeration, the CSR build, and every pass
// on the orbit representatives alone — worth a factor of the group order
// in states and edges.
//
// The contract Canonicalize must honour, for the quotient verdicts and
// metrics to equal the full space's:
//
//	totality:     it maps every state of the schema to a state of the
//	              schema (in place, no allocation required);
//	idempotence:  canon(canon(u)) = canon(u);
//	equivalence:  canon(u) = canon(v) exactly when u and v lie in one
//	              orbit of a group of program automorphisms — bijections
//	              of the state space that map each action's transitions
//	              onto transitions (multiplicities preserved) and leave
//	              the checked predicates (S, T, constraints, leads-to
//	              operands) invariant.
//
// ValidateSymmetry checks all of this exhaustively on enumerable
// instances; the registry's advertisement tests run it on every symmetric
// protocol family, and the metamorphic suites additionally pin
// full-vs-quotient bit-identity of whole reports. A hook that violates
// the contract is caught at space construction when it breaks idempotence
// (a canonical image that is not itself canonical is a hard error) —
// semantic violations beyond that are the advertiser's responsibility.
//
// Canonicalize is called concurrently from every sharded pass and must be
// safe for concurrent use on distinct states (pure apart from mutating
// its argument).
type Symmetry struct {
	// Name identifies the group in reports, traces and cache keys
	// (e.g. "value-rotation(9)", "subtree-iso").
	Name string
	// Canonicalize rewrites st, in place, to its orbit's representative.
	Canonicalize func(st *program.State)
}

// IdentitySymmetry is the trivial group: every orbit a singleton, the
// quotient space the full space. It exists so the quotient machinery —
// canonicalization sweeps, representative lookup, orbit weights — can
// run (and be cross-checked) on programs with no exploitable symmetry;
// the metamorphic suites use it to prove full-vs-quotient agreement on
// arbitrary programs.
func IdentitySymmetry() *Symmetry {
	return &Symmetry{Name: "identity", Canonicalize: func(*program.State) {}}
}

// ValidateSymmetry exhaustively checks sym's contract against p on the
// full state space: canonicalization must stay inside the schema's
// domains, be idempotent, leave every predicate in preds invariant, and
// commute with the transition relation (the canonical successors of u and
// of canon(u) must agree as multisets). The cost is O(states × actions),
// so call it on small instances — the registry's symmetry tests do — and
// trust the group structure for the large ones.
func ValidateSymmetry(ctx context.Context, p *program.Program, sym *Symmetry, preds ...*program.Predicate) error {
	if sym == nil || sym.Canonicalize == nil {
		return fmt.Errorf("verify: nil symmetry")
	}
	count, ok := p.Schema.StateCount()
	if !ok {
		return fmt.Errorf("verify: state space of %q not enumerable", p.Name)
	}
	st := p.Schema.NewState()
	cn := p.Schema.NewState()
	tmp := p.Schema.NewState()
	canonIndex := func(i int64, dst *program.State) int64 {
		p.Schema.StateInto(i, dst)
		sym.Canonicalize(dst)
		return p.Schema.Index(dst)
	}
	// canonSuccs collects the canonical successor multiset of state index
	// i, sorted for multiset comparison.
	canonSuccs := func(i int64, buf []int64) []int64 {
		p.Schema.StateInto(i, st)
		buf = buf[:0]
		for _, a := range p.Actions {
			if !a.Guard(st) {
				continue
			}
			a.ApplyInto(st, tmp)
			sym.Canonicalize(tmp)
			buf = append(buf, p.Schema.Index(tmp))
		}
		sort.Slice(buf, func(x, y int) bool { return buf[x] < buf[y] })
		return buf
	}
	var uSucc, cSucc []int64
	for i := int64(0); i < count; i++ {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ci := canonIndex(i, cn)
		if cci := canonIndex(ci, tmp); cci != ci {
			return fmt.Errorf("verify: symmetry %q not idempotent: canon(%s) = %s is not canonical",
				sym.Name, p.Schema.StateAt(i), p.Schema.StateAt(ci))
		}
		p.Schema.StateInto(i, st)
		for _, pred := range preds {
			if pred == nil || pred.IsConstTrue() {
				continue
			}
			p.Schema.StateInto(ci, cn)
			if pred.Eval(st) != pred.Eval(cn) {
				return fmt.Errorf("verify: symmetry %q does not preserve predicate %q at %s (orbit rep %s)",
					sym.Name, pred.Name, p.Schema.StateAt(i), p.Schema.StateAt(ci))
			}
		}
		uSucc = canonSuccs(i, uSucc)
		cSucc = canonSuccs(ci, cSucc)
		if len(uSucc) != len(cSucc) {
			return fmt.Errorf("verify: symmetry %q is not a program automorphism at %s: %d enabled actions vs %d at rep %s",
				sym.Name, p.Schema.StateAt(i), len(uSucc), len(cSucc), p.Schema.StateAt(ci))
		}
		for k := range uSucc {
			if uSucc[k] != cSucc[k] {
				return fmt.Errorf("verify: symmetry %q is not a program automorphism: successor orbits of %s and its rep %s differ",
					sym.Name, p.Schema.StateAt(i), p.Schema.StateAt(ci))
			}
		}
	}
	return nil
}
