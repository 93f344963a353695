package obs

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNopTracerAllocationFree pins the overhead contract: the no-op tracer
// costs nothing on either side of a span.
func TestNopTracerAllocationFree(t *testing.T) {
	var tr Tracer = Nop{}
	stat := PassStat{Pass: "closure", States: 1 << 20, Workers: 8, ElapsedMS: 12.5}
	if n := testing.AllocsPerRun(100, func() {
		tr.PassStart("closure", 0)
		tr.PassEnd(stat)
	}); n != 0 {
		t.Fatalf("Nop tracer allocates %.1f per span, want 0", n)
	}
}

// TestNilProgressAllocationFree pins the other half of the contract: hot
// loops may call a nil *Progress unconditionally.
func TestNilProgressAllocationFree(t *testing.T) {
	var p *Progress
	if n := testing.AllocsPerRun(100, func() {
		p.StartPass("enumerate", 1<<20)
		p.Add(1 << 14)
		_ = p.Snapshot()
	}); n != 0 {
		t.Fatalf("nil Progress allocates %.1f per call set, want 0", n)
	}
}

func TestProgressSampling(t *testing.T) {
	p := &Progress{}
	if s := p.Snapshot(); s.Pass != "" || s.Done != 0 {
		t.Fatalf("fresh snapshot = %+v, want zero", s)
	}

	p.StartPass("enumerate", 1000)
	p.Add(400)
	p.Add(200)
	s := p.Snapshot()
	if s.Pass != "enumerate" || s.Done != 600 || s.Total != 1000 {
		t.Fatalf("snapshot = %+v, want pass=enumerate done=600 total=1000", s)
	}
	if s.Elapsed < 0 {
		t.Fatalf("negative elapsed %v", s.Elapsed)
	}

	// A new pass resets the counter and swaps the header atomically.
	p.StartPass("closure", 0)
	s = p.Snapshot()
	if s.Pass != "closure" || s.Done != 0 || s.Total != 0 {
		t.Fatalf("after StartPass: %+v, want pass=closure done=0", s)
	}
}

func TestProgressWatch(t *testing.T) {
	p := &Progress{}
	p.StartPass("succ_table", 100)
	p.Add(42)

	var mu sync.Mutex
	var got []Snapshot
	stop := p.Watch(time.Millisecond, func(s Snapshot) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent

	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("watcher never sampled")
	}
	if s := got[0]; s.Pass != "succ_table" || s.Done != 42 {
		t.Fatalf("sampled %+v, want pass=succ_table done=42", s)
	}
}

// TestProgressWatchFinalSnapshot pins the stop contract: a pass
// finishing between ticks is still reported with its final counts — the
// watcher delivers one last snapshot on stop instead of leaving the
// consumer on a stale sample.
func TestProgressWatchFinalSnapshot(t *testing.T) {
	p := &Progress{}
	p.StartPass("convergence", 100)
	var mu sync.Mutex
	var got []Snapshot
	// An hour-long interval guarantees no tick fires: every delivery below
	// must come from the stop path.
	stop := p.Watch(time.Hour, func(s Snapshot) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	})
	p.Add(100)
	stop()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("stop delivered %d snapshots, want exactly 1", len(got))
	}
	if s := got[0]; s.Pass != "convergence" || s.Done != 100 {
		t.Fatalf("final snapshot %+v, want pass=convergence done=100", s)
	}
}

func TestNilProgressWatch(t *testing.T) {
	var p *Progress
	stop := p.Watch(time.Millisecond, func(Snapshot) {
		t.Error("nil progress watcher fired")
	})
	time.Sleep(5 * time.Millisecond)
	stop()
}

// TestCollectorOrder checks spans come back in completion order and that
// Passes returns an independent copy.
func TestCollectorOrder(t *testing.T) {
	c := &Collector{}
	names := []string{"enumerate", "succ_table", "closure", "converge_unfair"}
	for i, name := range names {
		c.PassStart(name, 0)
		c.PassEnd(PassStat{Pass: name, States: int64(i + 1)})
	}
	got := c.Passes()
	if len(got) != len(names) {
		t.Fatalf("collected %d spans, want %d", len(got), len(names))
	}
	for i, name := range names {
		if got[i].Pass != name || got[i].States != int64(i+1) {
			t.Fatalf("span %d = %+v, want pass %s", i, got[i], name)
		}
	}
	got[0].Pass = "mutated"
	if c.Passes()[0].Pass != "enumerate" {
		t.Fatal("Passes returned the internal slice, not a copy")
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := &Collector{}
	var wg sync.WaitGroup
	const emitters, spans = 8, 100
	for i := 0; i < emitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < spans; j++ {
				c.PassEnd(PassStat{Pass: "stage"})
			}
		}()
	}
	wg.Wait()
	if n := len(c.Passes()); n != emitters*spans {
		t.Fatalf("collected %d spans, want %d", n, emitters*spans)
	}
}

// eventLog is a Tracer that records every event it receives.
type eventLog []string

func (l *eventLog) PassStart(pass string, _ int64) { *l = append(*l, "start "+pass) }
func (l *eventLog) PassEnd(stat PassStat)          { *l = append(*l, "end "+stat.Pass) }

// TestCollectorForwards checks that the collector records each span and
// hands every event on to Next in order, and that a nil Next is the
// "nothing downstream" spelling.
func TestCollectorForwards(t *testing.T) {
	var next eventLog
	c := &Collector{Next: &next}
	c.PassStart("x", 0)
	c.PassEnd(PassStat{Pass: "x"})
	c.PassEnd(PassStat{Pass: "y"})
	if want := []string{"start x", "end x", "end y"}; !slices.Equal(next, want) {
		t.Fatalf("forwarded %q, want %q", next, want)
	}
	if len(c.Passes()) != 2 {
		t.Fatalf("collected %d spans, want 2", len(c.Passes()))
	}
	alone := &Collector{}
	alone.PassStart("x", 0)
	alone.PassEnd(PassStat{Pass: "x"})
	if len(alone.Passes()) != 1 {
		t.Fatal("collector without Next dropped its span")
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]PassStat{
		{Pass: "enumerate", States: 16384, Workers: 4, ElapsedMS: 2},
		{Pass: "converge_unfair", States: 16384, Frontier: 1074, Workers: 4, ElapsedMS: 8},
	})
	for _, want := range []string{"enumerate", "converge_unfair", "1074", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteBreakdown(t *testing.T) {
	var buf bytes.Buffer
	WriteBreakdown(&buf, []PassStat{
		{Pass: "closure", States: 100, ElapsedMS: 1},
		{Pass: "closure", States: 100, ElapsedMS: 1},
		{Pass: "enumerate", States: 100, ElapsedMS: 6},
	})
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("breakdown has %d lines, want 2 (aggregated):\n%s", len(lines), out)
	}
	// enumerate dominates (6ms of 8ms) and must sort first.
	if !strings.HasPrefix(lines[0], "enumerate") {
		t.Fatalf("breakdown not sorted by share:\n%s", out)
	}
	if !strings.Contains(lines[1], "(2 spans)") {
		t.Fatalf("closure spans not aggregated:\n%s", out)
	}
}

func TestPassStatDerived(t *testing.T) {
	s := PassStat{Pass: "x", States: 2000, ElapsedMS: 2000}
	if got := s.Elapsed(); got != 2*time.Second {
		t.Fatalf("Elapsed = %v, want 2s", got)
	}
	if got := s.StatesPerSecond(); got != 1000 {
		t.Fatalf("StatesPerSecond = %v, want 1000", got)
	}
	if got := (PassStat{}).StatesPerSecond(); got != 0 {
		t.Fatalf("zero-span rate = %v, want 0", got)
	}
}
