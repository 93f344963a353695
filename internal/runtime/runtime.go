// Package runtime executes protocols as message-passing distributed
// systems: one goroutine per node, unreliable typed links, and cached
// neighbor state. It realizes the low-atomicity refinement the paper
// defers to companion work (Section 8: the high-atomicity actions "may
// be unsuitable for a distributed implementation"; Section 7.1 leaves the
// message-passing refinement "as an exercise to the reader").
//
// Each node holds a vector of int32 registers. A node acts on its own
// registers and a cache of its neighbors' registers, refreshed by
// messages; after each local step (and periodically, to mask message
// loss) the node broadcasts its registers to its neighbors. Links drop
// and duplicate messages with configurable probability.
package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Protocol adapts a distributed protocol to the runtime.
type Protocol interface {
	// Nodes returns the node count.
	Nodes() int
	// Neighbors returns the nodes whose state node i reads.
	Neighbors(i int) []int
	// LocalLen returns the number of registers node i owns.
	LocalLen(i int) int
	// Init fills node i's initial registers.
	Init(i int, regs []int32)
	// Step executes at most one enabled local action of node i against its
	// registers and the cached neighbor registers, mutating regs in place.
	// It reports whether an action fired. Cache entries may be nil before
	// the first message from that neighbor arrives.
	Step(i int, regs []int32, cache map[int][]int32) bool
	// Legitimate evaluates the global invariant on a snapshot of all
	// nodes' registers.
	Legitimate(all [][]int32) bool
}

// Config tunes the network.
type Config struct {
	// LossProb is the probability a message is dropped.
	LossProb float64
	// DupProb is the probability a delivered message is duplicated.
	DupProb float64
	// Seed drives all randomness; runs with equal seeds and schedules are
	// statistically alike (goroutine interleaving still varies).
	Seed int64
	// RetransmitEvery is the idle rebroadcast period masking message loss.
	// Zero means a millisecond.
	RetransmitEvery time.Duration
	// StableUpdates is how many consecutive legitimate monitor updates
	// count as convergence. Zero means 3 * nodes.
	StableUpdates int
	// MidRunFault, when non-nil, corrupts running nodes once the monitor
	// has processed MidRunAfter updates — live fault injection into the
	// concurrent system, not just a corrupted start.
	MidRunFault *MidRunFault
}

// MidRunFault describes one live injection.
type MidRunFault struct {
	// After is the monitor-update count that triggers the injection.
	After int
	// Nodes is how many (monitor-chosen random) nodes to corrupt.
	Nodes int
	// Corrupt perturbs one victim's registers inside its goroutine.
	Corrupt func(i int, regs []int32, rng *rand.Rand)
}

func (c Config) retransmitEvery() time.Duration {
	if c.RetransmitEvery <= 0 {
		return time.Millisecond
	}
	return c.RetransmitEvery
}

// message carries one node's registers to a neighbor.
type message struct {
	from int
	regs []int32
}

// Network runs one protocol instance.
type Network struct {
	proto Protocol
	cfg   Config

	inboxes []chan message
	updates chan message // node -> monitor
	corrupt []chan func([]int32, *rand.Rand)
	done    chan struct{}
	wg      sync.WaitGroup

	mu   sync.Mutex
	rng  *rand.Rand
	regs [][]int32 // initial registers, then owned by node goroutines
}

// NewNetwork prepares a network; Corrupt may be called before Run to
// perturb initial states.
func NewNetwork(p Protocol, cfg Config) *Network {
	n := p.Nodes()
	net := &Network{
		proto:   p,
		cfg:     cfg,
		inboxes: make([]chan message, n),
		updates: make(chan message, 4*n),
		corrupt: make([]chan func([]int32, *rand.Rand), n),
		done:    make(chan struct{}),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		regs:    make([][]int32, n),
	}
	for i := 0; i < n; i++ {
		net.inboxes[i] = make(chan message, 8*n)
		net.corrupt[i] = make(chan func([]int32, *rand.Rand), 1)
		net.regs[i] = make([]int32, p.LocalLen(i))
		p.Init(i, net.regs[i])
	}
	return net
}

// Corrupt randomizes the registers of k nodes within int8 range (protocol
// adapters must clamp incoming cached values to their domains if they care;
// the bundled adapters interpret registers modulo their domains).
func (net *Network) Corrupt(k int, corrupt func(i int, regs []int32, rng *rand.Rand)) {
	n := net.proto.Nodes()
	if k <= 0 || k > n {
		k = n
	}
	perm := net.rng.Perm(n)
	for _, i := range perm[:k] {
		corrupt(i, net.regs[i], net.rng)
	}
}

// Result reports one network run.
type Result struct {
	// Converged reports whether the monitor saw StableUpdates consecutive
	// legitimate snapshots before the deadline (and after the mid-run
	// fault, when one is configured).
	Converged bool
	// Updates is the number of state updates the monitor processed.
	Updates int
	// FaultFiredAt is the update count at which the mid-run fault was
	// injected, or 0 when none was configured.
	FaultFiredAt int
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
	// Final is the last snapshot.
	Final [][]int32
}

// Run starts the nodes and blocks until convergence or the deadline. The
// network cannot be reused after Run returns.
func (net *Network) Run(deadline time.Duration) *Result {
	n := net.proto.Nodes()
	start := time.Now()

	// The initial snapshot is copied before the nodes start: from then
	// on each node's registers belong to its own goroutine.
	snapshot := make([][]int32, n)
	for i := range snapshot {
		snapshot[i] = make([]int32, len(net.regs[i]))
		copy(snapshot[i], net.regs[i])
	}

	// Per-node send RNGs, seeded deterministically.
	for i := 0; i < n; i++ {
		i := i
		rng := rand.New(rand.NewSource(net.cfg.Seed + int64(i)*7919 + 1))
		net.wg.Add(1)
		go net.nodeLoop(i, net.regs[i], rng)
	}

	// Monitor: collect updates, detect stability.
	stable := net.cfg.StableUpdates
	if stable <= 0 {
		stable = 3 * n
	}
	res := &Result{}
	consecutive := 0
	faultPending := net.cfg.MidRunFault != nil
	timer := time.NewTimer(deadline)
	defer timer.Stop()
loop:
	for {
		select {
		case m := <-net.updates:
			copy(snapshot[m.from], m.regs)
			res.Updates++
			if faultPending && res.Updates >= net.cfg.MidRunFault.After {
				faultPending = false
				res.FaultFiredAt = res.Updates
				consecutive = 0
				f := net.cfg.MidRunFault
				k := f.Nodes
				if k <= 0 || k > n {
					k = n
				}
				for _, victim := range net.rng.Perm(n)[:k] {
					victim := victim
					inject := func(regs []int32, rng *rand.Rand) {
						f.Corrupt(victim, regs, rng)
					}
					select {
					case net.corrupt[victim] <- inject:
					default: // injection already pending; skip
					}
				}
			}
			if !faultPending && net.proto.Legitimate(snapshot) {
				consecutive++
				if consecutive >= stable {
					res.Converged = true
					break loop
				}
			} else if !net.proto.Legitimate(snapshot) {
				consecutive = 0
			}
		case <-timer.C:
			break loop
		}
	}
	close(net.done)
	net.wg.Wait()
	res.Elapsed = time.Since(start)
	res.Final = snapshot
	return res
}

// nodeLoop is one node's goroutine: drain messages, act, broadcast.
func (net *Network) nodeLoop(i int, regs []int32, rng *rand.Rand) {
	defer net.wg.Done()
	cache := make(map[int][]int32)
	ticker := time.NewTicker(net.cfg.retransmitEvery())
	defer ticker.Stop()

	broadcast := func() {
		// Inform the monitor first (reliable; loss applies to links only):
		// pushing before the neighbor sends keeps monitor updates causally
		// ordered, so snapshots of quiescent-legitimate systems stay
		// legitimate.
		cp := make([]int32, len(regs))
		copy(cp, regs)
		select {
		case net.updates <- message{from: i, regs: cp}:
		case <-net.done:
		}
		for _, to := range net.neighborsOf(i) {
			net.send(i, to, regs, rng)
		}
	}
	broadcast()

	for {
		// Drain all pending messages without blocking.
		drained := false
		for {
			select {
			case m := <-net.inboxes[i]:
				cache[m.from] = m.regs
				drained = true
			default:
				goto act
			}
		}
	act:
		_ = drained
		fired := false
		for net.proto.Step(i, regs, cache) {
			fired = true
		}
		if fired {
			broadcast()
			continue
		}
		// Nothing to do: wait for input, an injected fault, a retransmit
		// tick, or shutdown.
		select {
		case m := <-net.inboxes[i]:
			cache[m.from] = m.regs
		case f := <-net.corrupt[i]:
			f(regs, rng)
			broadcast()
		case <-ticker.C:
			broadcast()
		case <-net.done:
			return
		}
	}
}

// neighborsOf returns the nodes that read node i's state — i must push to
// them. With symmetric neighbor relations (all bundled adapters) this is
// simply Neighbors(i); for directed relations it is the reverse adjacency.
func (net *Network) neighborsOf(i int) []int {
	var out []int
	for j := 0; j < net.proto.Nodes(); j++ {
		for _, k := range net.proto.Neighbors(j) {
			if k == i {
				out = append(out, j)
			}
		}
	}
	return out
}

// send delivers regs from -> to across the lossy link.
func (net *Network) send(from, to int, regs []int32, rng *rand.Rand) {
	if rng.Float64() < net.cfg.LossProb {
		return
	}
	copies := 1
	if rng.Float64() < net.cfg.DupProb {
		copies = 2
	}
	for c := 0; c < copies; c++ {
		cp := make([]int32, len(regs))
		copy(cp, regs)
		select {
		case net.inboxes[to] <- message{from: from, regs: cp}:
		case <-net.done:
			return
		default:
			// Full inbox: drop (backpressure as loss).
		}
	}
}

// String renders a snapshot for debugging.
func SnapshotString(all [][]int32) string {
	return fmt.Sprintf("%v", all)
}
