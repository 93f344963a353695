package verify_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nonmask/internal/program"
)

// TestFootprintAuditExhaustive checks the footprints the checker's sweeps
// trust — every catalog entry at its smallest advertised parameters, the
// multi-chunk instances, the synthetic footprint model and every
// testdata/*.gcl model — over each action's whole read-set product rather
// than program.AuditAction's random sample.
func TestFootprintAuditExhaustive(t *testing.T) {
	for name, m := range csrModels(t) {
		t.Run(name, func(t *testing.T) {
			bgs := auditBackgrounds(m.p.Schema)
			for _, a := range m.p.Actions {
				if err := auditFootprint(m.p.Schema, a, bgs); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// auditBackgrounds returns six full assignments: every variable at its
// minimum, one above it, at its maximum and one below it (clamped to the
// domain), and two seeded draws. Any variable with more than one value
// takes at least two values among them, of both parities.
func auditBackgrounds(s *program.Schema) [][]int32 {
	var bgs [][]int32
	for _, pick := range []func(program.Domain) int32{
		func(d program.Domain) int32 { return d.Min },
		func(d program.Domain) int32 { return d.Clamp(d.Min + 1) },
		func(d program.Domain) int32 { return d.Max },
		func(d program.Domain) int32 { return d.Clamp(d.Max - 1) },
	} {
		bg := make([]int32, s.Len())
		for v := range bg {
			bg[v] = pick(s.Spec(program.VarID(v)).Dom)
		}
		bgs = append(bgs, bg)
	}
	rng := rand.New(rand.NewSource(1))
	for range 2 {
		bgs = append(bgs, program.RandomState(s, rng).Values())
	}
	return bgs
}

// auditFootprint enumerates a's read-set product under each background,
// which supplies every variable outside Reads, and checks what the sweeps
// assume: the guard depends on Reads alone, and wherever it holds the body
// assigns only Writes, with values that depend on Reads alone.
func auditFootprint(s *program.Schema, a *program.Action, backgrounds [][]int32) error {
	type outcome struct {
		enabled bool
		wrote   []int32
	}
	var first []outcome
	for b, bg := range backgrounds {
		st := s.NewState()
		if err := st.SetValues(bg); err != nil {
			return err
		}
		for _, r := range a.Reads {
			st.Set(r, s.Spec(r).Dom.Min)
		}
		for k := 0; ; k++ {
			got := outcome{enabled: a.Guard(st)}
			if got.enabled {
				next := a.Apply(st)
				for v := program.VarID(0); int(v) < s.Len(); v++ {
					if !slices.Contains(a.Writes, v) && next.Get(v) != st.Get(v) {
						return fmt.Errorf("action %q writes undeclared %s at %s", a.Name, s.Spec(v).Name, st)
					}
				}
				for _, w := range a.Writes {
					got.wrote = append(got.wrote, next.Get(w))
				}
			}
			switch {
			case b == 0:
				first = append(first, got)
			case got.enabled != first[k].enabled:
				return fmt.Errorf("action %q guard reads outside its Reads: %v at %s, %v under the first background",
					a.Name, got.enabled, st, first[k].enabled)
			case !slices.Equal(got.wrote, first[k].wrote):
				return fmt.Errorf("action %q body reads outside its Reads: writes %v at %s, %v under the first background",
					a.Name, got.wrote, st, first[k].wrote)
			}
			if !nextValuation(s, a.Reads, st) {
				break
			}
		}
	}
	return nil
}

// nextValuation steps the read variables of st to their next valuation,
// the last one fastest, and reports false once every valuation was seen.
func nextValuation(s *program.Schema, reads []program.VarID, st *program.State) bool {
	for k := len(reads) - 1; k >= 0; k-- {
		r := reads[k]
		d := s.Spec(r).Dom
		if v := st.Get(r); v < d.Max {
			st.Set(r, v+1)
			return true
		}
		st.Set(r, d.Min)
	}
	return false
}

// TestFootprintAuditCatchesDishonestActions runs the audit on the
// dishonest actions the space constructor must refuse: it has to flag
// each, or its silence on the shipped programs would prove nothing.
func TestFootprintAuditCatchesDishonestActions(t *testing.T) {
	s, _ := footprintSchema()
	for a := range dishonestActions() {
		if err := auditFootprint(s, a, auditBackgrounds(s)); err == nil {
			t.Errorf("audit passed dishonest action %q", a.Name)
		} else {
			t.Logf("%s: %v", a.Name, err)
		}
	}
}
