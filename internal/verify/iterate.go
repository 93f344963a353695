package verify

import (
	"nonmask/internal/obs"
	"nonmask/internal/program"
)

// SuccCursor iterates the enabled successors of individual states together
// with the acting action — the schedule-constrained view of the transition
// graph that replay and adversarial search need (the bulk passes only ever
// consume anonymous successor indices). A cursor owns its scratch states,
// so one cursor amortizes decoding allocations across many calls; cursors
// are not safe for concurrent use, give each goroutine its own.
type SuccCursor struct {
	sp *Space
	st *program.State
}

// NewSuccCursor returns a cursor over this space's transition graph.
func (sp *Space) NewSuccCursor() *SuccCursor {
	return &SuccCursor{sp: sp, st: sp.P.Schema.NewState()}
}

// ForEach invokes fn(a, j) for every enabled action a of state i and the
// successor index j it produces, in action-declaration order (the order
// the CSR stores edges in). fn returning false stops the iteration. The
// successor indices are read from the CSR and the guards are rescanned
// only to recover action identity — the same zip the convergence passes
// use.
func (c *SuccCursor) ForEach(i int64, fn func(a *program.Action, j int64) bool) {
	sp := c.sp
	sp.stateInto(i, c.st)
	row := sp.idx.out(i)
	rank := 0
	for _, a := range sp.P.Actions {
		if !a.Guard(c.st) {
			continue
		}
		j := int64(row[rank])
		rank++
		if !fn(a, j) {
			return
		}
	}
}

// ForEachSuccessor is the convenience form of SuccCursor.ForEach for
// one-off calls; loops should hold a cursor instead.
func (sp *Space) ForEachSuccessor(i int64, fn func(a *program.Action, j int64) bool) {
	sp.NewSuccCursor().ForEach(i, fn)
}

// Tracer exposes the tracer the space was built with, so follow-up passes
// run by other packages (e.g. the saboteur search) can emit spans into the
// same stream — inside Check that stream is the report's collector teed
// with the caller's tracer, so such spans surface in Report.PassStats().
func (sp *Space) Tracer() obs.Tracer { return sp.opts.Tracer }

// Codec exposes the space's mixed-radix codec over full-product state
// indices, for follow-up passes in other packages that decode states
// and encode successors in their own loops.
func (sp *Space) Codec() *program.Codec { return sp.codec }

// Workers exposes the resolved worker count of the space's options, for
// follow-up passes that shard their own scans.
func (sp *Space) Workers() int { return sp.workers() }
