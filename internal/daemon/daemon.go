// Package daemon provides execution schedulers ("daemons" in the
// self-stabilization literature) for guarded-command programs. A daemon
// repeatedly picks one enabled action to execute — the paper's computations
// are exactly the fair maximal sequences a fair daemon produces
// (Section 2), while the Section 8 remark about fairness being unnecessary
// is tested with the unfair adversarial daemons defined here.
package daemon

import (
	"math/rand"

	"nonmask/internal/program"
)

// Daemon selects which enabled action executes next. Pick receives the
// current state, the enabled actions (non-empty, in program order), and the
// step number; it returns one element of enabled.
type Daemon interface {
	// Name identifies the daemon in reports.
	Name() string
	// Pick returns one of the enabled actions.
	Pick(st *program.State, enabled []*program.Action, step int) *program.Action
}

// RoundRobin cycles through the program's actions in program order,
// executing the first enabled action at or after its rotation cursor and
// advancing the cursor past it. It is weakly fair: an action that stays
// enabled is executed within one full rotation.
type RoundRobin struct {
	pos  map[*program.Action]int
	n    int
	next int
}

// NewRoundRobin returns a round-robin daemon over the program's actions.
func NewRoundRobin(p *program.Program) *RoundRobin {
	pos := make(map[*program.Action]int, len(p.Actions))
	for i, a := range p.Actions {
		pos[a] = i
	}
	return &RoundRobin{pos: pos, n: len(p.Actions)}
}

// Name implements Daemon.
func (d *RoundRobin) Name() string { return "round-robin" }

// Pick implements Daemon. Among the enabled actions it chooses the one
// whose program position is cyclically first at or after the cursor.
func (d *RoundRobin) Pick(st *program.State, enabled []*program.Action, step int) *program.Action {
	best := enabled[0]
	bestDist := d.n + 1
	for _, a := range enabled {
		p, ok := d.pos[a]
		if !ok {
			continue // foreign action (e.g. injected fault): lowest priority
		}
		dist := (p - d.next + d.n) % d.n
		if dist < bestDist {
			bestDist = dist
			best = a
		}
	}
	if p, ok := d.pos[best]; ok && d.n > 0 {
		d.next = (p + 1) % d.n
	}
	return best
}

// Random picks uniformly among the enabled actions using its own seeded
// source, making runs reproducible. Random scheduling is fair with
// probability 1.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a random daemon seeded deterministically.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Daemon.
func (d *Random) Name() string { return "random" }

// Pick implements Daemon.
func (d *Random) Pick(st *program.State, enabled []*program.Action, step int) *program.Action {
	return enabled[d.rng.Intn(len(enabled))]
}

// Metric scores states; adversarial daemons maximize it. Higher means
// "further from the invariant".
type Metric func(st *program.State) float64

// Adversarial greedily picks the enabled action whose successor maximizes
// the metric, breaking ties by program order. With the exact worst-case
// distance metric from verify.WorstDistances it realizes the true worst
// case on convergent programs; with a heuristic metric (e.g. violated
// constraint count) it approximates an adversary at scale.
//
// Adversarial daemons are deliberately unfair: they exercise the paper's
// Section 8 claim that the derived programs converge without fairness.
type Adversarial struct {
	metric Metric
	name   string
}

// NewAdversarial returns a daemon maximizing the given metric.
func NewAdversarial(name string, metric Metric) *Adversarial {
	return &Adversarial{metric: metric, name: name}
}

// Name implements Daemon.
func (d *Adversarial) Name() string { return d.name }

// Pick implements Daemon.
func (d *Adversarial) Pick(st *program.State, enabled []*program.Action, step int) *program.Action {
	best := enabled[0]
	bestScore := -1.0
	for _, a := range enabled {
		next := a.Apply(st)
		if score := d.metric(next); score > bestScore {
			bestScore = score
			best = a
		}
	}
	return best
}

// ViolationMetric builds a heuristic adversarial metric from a predicate
// list: the number of violated predicates at the state. It needs no state
// enumeration and hence scales to large instances.
func ViolationMetric(preds []*program.Predicate) Metric {
	return func(st *program.State) float64 {
		n := 0.0
		for _, p := range preds {
			if !p.Holds(st) {
				n++
			}
		}
		return n
	}
}

// DistanceMetric wraps an exact worst-case distance table (indexed by
// state index) as a Metric.
func DistanceMetric(schema *program.Schema, dist []int32) Metric {
	return func(st *program.State) float64 {
		return float64(dist[schema.Index(st)])
	}
}

// NewWorstCase returns the exact adversarial daemon for a convergent
// program: it greedily maximizes the worst-case distance table produced by
// verify's longest-path DFS (Space.WorstDistances), realizing the true
// worst-case schedule of the paper's variant-function bound.
func NewWorstCase(schema *program.Schema, dist []int32) *Adversarial {
	return NewAdversarial("worst-case", DistanceMetric(schema, dist))
}

// KindBiased prefers actions of the given kind when any is enabled,
// delegating to the inner daemon among the preferred subset. Biasing
// against convergence actions models a scheduler that starves repair —
// another unfair schedule the designs must survive.
type KindBiased struct {
	inner  Daemon
	prefer program.ActionKind
}

// NewKindBiased wraps inner with a kind preference.
func NewKindBiased(inner Daemon, prefer program.ActionKind) *KindBiased {
	return &KindBiased{inner: inner, prefer: prefer}
}

// Name implements Daemon.
func (d *KindBiased) Name() string {
	return d.inner.Name() + "+prefer-" + d.prefer.String()
}

// Pick implements Daemon.
func (d *KindBiased) Pick(st *program.State, enabled []*program.Action, step int) *program.Action {
	var preferred []*program.Action
	for _, a := range enabled {
		if a.Kind == d.prefer {
			preferred = append(preferred, a)
		}
	}
	if len(preferred) == 0 {
		preferred = enabled
	}
	return d.inner.Pick(st, preferred, step)
}

// interface compliance
var (
	_ Daemon = (*RoundRobin)(nil)
	_ Daemon = (*Random)(nil)
	_ Daemon = (*Adversarial)(nil)
	_ Daemon = (*KindBiased)(nil)
)
