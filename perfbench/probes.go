package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"nonmask/internal/gcl"
	"nonmask/internal/protocols/registry"
	"nonmask/internal/service"
	"nonmask/internal/store"
)

// Direct calls into single layers, timed in-process on the workload's
// own inputs. Each call is also a span, so the layer table shows them.

type probes struct {
	gclLoadUS   []float64
	buildUS     []float64
	submitHitUS []float64
	encodeUS    []float64
	putUS       []float64
	getUS       []float64
	sinceMS     []float64
	applyUS     []float64
	openMS      float64
	bytesPerKey float64
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// probeCompile times gcl.Load on every GCL source and registry.Build on
// every catalog spec of the workload, three times each.
func probeCompile(pr *probes, specs []service.JobSpec, tr *tracer) error {
	for rep := 0; rep < 3; rep++ {
		for _, sp := range specs {
			t0 := time.Now()
			if sp.Source != "" {
				if _, err := gcl.Load(sp.Source); err != nil {
					return fmt.Errorf("gcl.Load: %w", err)
				}
				pr.gclLoadUS = append(pr.gclLoadUS, usSince(t0))
				tr.record(0, 0, "gcl.Load", "", t0)
				continue
			}
			p, err := registry.Normalize(sp.Protocol, sp.Params)
			if err == nil {
				_, err = registry.Build(sp.Protocol, p)
			}
			if err != nil {
				return fmt.Errorf("registry.Build: %w", err)
			}
			pr.buildUS = append(pr.buildUS, usSince(t0))
			tr.record(0, 0, "registry.Build", "", t0)
		}
	}
	return nil
}

// probeSubmitHit times in-process Server.Submit on specs the server has
// cached, and json.Marshal of the returned status.
func probeSubmitHit(pr *probes, svc *service.Server, specs []service.JobSpec, tr *tracer) error {
	if len(specs) > 64 {
		specs = specs[:64]
	}
	for rep := 0; rep < 5; rep++ {
		for _, sp := range specs {
			t0 := time.Now()
			st, err := svc.Submit(sp)
			if err != nil {
				return fmt.Errorf("Server.Submit: %w", err)
			}
			if !st.Cached {
				continue // not a hit on this node (a cluster peer owns it)
			}
			pr.submitHitUS = append(pr.submitHitUS, usSince(t0))
			tr.record(0, 0, "service.Submit", st.ID, t0)
			t1 := time.Now()
			if _, err := json.Marshal(st); err != nil {
				return fmt.Errorf("encode: %w", err)
			}
			pr.encodeUS = append(pr.encodeUS, usSince(t1))
			tr.record(0, 0, "service.encode", st.ID, t1)
		}
	}
	return nil
}

// probeStore reopens the log a node wrote during the run (timing the
// recovery), reads every record back with its decode, pages the log the
// way a replica's cursor does, and writes the records into fresh stores
// with Put and with Apply.
func probeStore(pr *probes, dir, scratch string, tr *tracer) error {
	t0 := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	pr.openMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.record(0, 0, "store.Open", "", t0)
	defer st.Close()
	stats := st.Stats()
	if stats.Keys > 0 {
		pr.bytesPerKey = float64(stats.LiveBytes) / float64(stats.Keys)
	}
	var recs []store.Record
	gen, off := st.Generation(), int64(0)
	for {
		t := time.Now()
		page, ng, no, more, err := st.Since(gen, off, 0)
		if err != nil {
			return err
		}
		pr.sinceMS = append(pr.sinceMS, float64(time.Since(t).Nanoseconds())/1e6)
		tr.record(0, 0, "store.Since", "", t)
		recs = append(recs, page...)
		gen, off = ng, no
		if !more {
			break
		}
	}
	if len(recs) > 1000 {
		recs = recs[len(recs)-1000:]
	}
	for _, r := range recs {
		t := time.Now()
		raw, ok := st.Get(r.Key)
		var res service.Result
		if !ok || json.Unmarshal(raw, &res) != nil {
			return fmt.Errorf("store.Get %s: missing or undecodable", r.Key)
		}
		pr.getUS = append(pr.getUS, usSince(t))
		tr.record(0, 0, "store.Get", "", t)
	}
	for i, name := range []string{"probe-put", "probe-apply"} {
		ps, err := store.Open(filepath.Join(scratch, name), store.Options{})
		if err != nil {
			return err
		}
		for _, r := range recs {
			t := time.Now()
			if i == 0 {
				err = ps.Put(r.Key, r.Value)
				pr.putUS = append(pr.putUS, usSince(t))
				tr.record(0, 0, "store.Put", "", t)
			} else {
				_, err = ps.Apply(r.Key, r.Value)
				pr.applyUS = append(pr.applyUS, usSince(t))
				tr.record(0, 0, "store.Apply", "", t)
			}
			if err != nil {
				ps.Close()
				return err
			}
		}
		if err := ps.Close(); err != nil {
			return err
		}
	}
	return nil
}

// workerSweep checks the first half of the verify-cold pass once per
// worker count 1..nproc, each on a fresh stack, and returns the summed
// check time per count.
func workerSweep(e *env, jobs []job, tl *tally) (map[int]float64, error) {
	round := jobs[:len(jobs)/2]
	out := make(map[int]float64)
	for w := 1; w <= runtime.NumCPU(); w++ {
		cfg := stackConfig{Nodes: 1, Dir: filepath.Join(e.Dir, fmt.Sprintf("sweep%d", w))}
		s, _, err := timedSetup(cfg, nil)
		if err != nil {
			return nil, err
		}
		for _, j := range round {
			spec := j.Spec
			spec.Options.Workers = w
			tl.attempt()
			st, err := s.nodes[0].cli.Run(context.Background(), spec)
			if err == nil {
				err = check(j.Want, st)
			}
			if err != nil {
				tl.fail("sweep workers=%d %s: %v", w, j.Label, err)
				continue
			}
			out[w] += st.Result.ElapsedMS
		}
		s.stop()
	}
	return out, nil
}
