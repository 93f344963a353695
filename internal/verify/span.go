package verify

import (
	"context"
	"fmt"

	"nonmask/internal/program"
)

// SpanResult is the outcome of a fault-span computation.
type SpanResult struct {
	// Span is a predicate holding exactly at the states reachable from the
	// initial region under program and fault actions. It is closed in both
	// by construction (paper Section 3: "a program fault-span identifies a
	// set of states that is kept closed under the execution of program
	// actions as well as fault actions").
	Span *program.Predicate
	// States is the number of states in the span.
	States int64
	// Total is the size of the full state space.
	Total int64
}

// FaultSpanContext computes the smallest closed fault-span containing the
// initial region: the set of states reachable from any init state by
// program actions and the given fault actions. This mechanizes the
// paper's view that "all classes of faults can be represented as actions
// that change the program state" (Section 3). Check runs it when
// WithFaults is given. The initial-region scan and each BFS level (waves)
// are sharded across opts.Workers goroutines; frontier deduplication uses
// atomic test-and-set on the span bitset, so the computed span is exact
// for any worker count.
func FaultSpanContext(ctx context.Context, p *program.Program, faults []*program.Action,
	init *program.Predicate, opts Options) (*SpanResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	count, ok := p.Schema.StateCount()
	if !ok || count > opts.maxStates() {
		return nil, fmt.Errorf("verify: state space too large for fault-span computation (%d states)", count)
	}
	codec := program.NewCodec(p.Schema)
	all := make([]*program.Action, 0, len(p.Actions)+len(faults))
	all = append(all, p.Actions...)
	all = append(all, faults...)

	workers := opts.workers()
	scr := newSchemaPairs(p.Schema, workers)
	inSpan := newBitset(count)
	// No Space exists yet, so there is no arena: the frontiers stay in RAM.
	cur := newFrontierSpool(nil, workers)
	defer cur.release()
	span := startPass(opts, PassFaultSpan, count)
	err := parallelRange(ctx, workers, count, opts.Progress, func(worker int, lo, hi int64) {
		st := scr[worker].st
		for i := lo; i < hi; i++ {
			sweepInto(codec, lo, i, st)
			if init.Holds(st) {
				inSpan.set(i)
				cur.add(worker, i)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if cur.size() == 0 {
		return nil, fmt.Errorf("verify: initial region is empty")
	}
	spanCount, err := waves(ctx, opts.Progress, &span, cur, func(worker int, _ int32, batch []int64, next *frontierSpool) {
		st, tmp := scr[worker].st, scr[worker].tmp
		for _, i := range batch {
			codec.Decode(i, st)
			for _, a := range all {
				if !a.Guard(st) {
					continue
				}
				a.ApplyInto(st, tmp)
				if j := codec.Encode(tmp); inSpan.testAndSet(j) {
					next.add(worker, j)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	schema := p.Schema
	pred := &program.Predicate{
		Name: fmt.Sprintf("fault-span(%s)", init.Name),
		Eval: func(st *program.State) bool { return inSpan.get(schema.Index(st)) },
	}
	// The span may depend on every variable; declare the full support.
	for v := 0; v < schema.Len(); v++ {
		pred.Vars = append(pred.Vars, program.VarID(v))
	}
	span.end(spanCount)
	return &SpanResult{Span: pred, States: spanCount, Total: count}, nil
}

// Classify reports the paper's Section 3 classification for a tolerant
// program: masking when S = T (semantically, over the full space),
// nonmasking when S is a strict subset of T.
type Classification int

// Classifications of a fault-tolerant program.
const (
	// Masking means the fault-span equals the invariant: faults never drive
	// the program outside its fault-free states.
	Masking Classification = iota + 1
	// Nonmasking means the fault-span strictly contains the invariant: the
	// input-output relation may be violated temporarily.
	Nonmasking
)

// String returns the classification name.
func (c Classification) String() string {
	switch c {
	case Masking:
		return "masking"
	case Nonmasking:
		return "nonmasking"
	default:
		return fmt.Sprintf("Classification(%d)", int(c))
	}
}

// Classify compares S and T semantically over the enumerated space.
func (sp *Space) Classify() Classification {
	if firstAndNot(sp.inT, sp.inS) >= 0 {
		return Nonmasking
	}
	return Masking
}
