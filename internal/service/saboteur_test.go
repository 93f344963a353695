package service

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"nonmask/internal/protocols/registry"
	"nonmask/internal/saboteur"
)

// sabSpec is a catalog job that also requests the adversarial search.
func sabSpec(protocol string, p registry.Params, k int) JobSpec {
	return JobSpec{Protocol: protocol, Params: p,
		Options: JobOptions{Saboteur: &SaboteurOptions{K: k}}}
}

// TestSaboteurJobEndToEnd is the tentpole's service-facing acceptance:
// a saboteur job returns a witness whose independent program-level replay
// reproduces the claimed cost bit-for-bit, the search span joins the
// result's pass breakdown, and the csserved_saboteur_* counters move.
func TestSaboteurJobEndToEnd(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(sabSpec("diffusing", registry.Params{N: 3}, 2))
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, s, j.ID)
	if done.State != StateDone {
		t.Fatalf("job ended %s (err %q)", done.State, done.Error)
	}
	sab := done.Result.Saboteur
	if sab == nil {
		t.Fatal("result has no saboteur block")
	}
	if sab.K != 2 || sab.Objective != saboteur.ObjectiveRecovery {
		t.Fatalf("echoed options k=%d objective=%q", sab.K, sab.Objective)
	}
	if sab.Cost <= 0 || !sab.Optimal {
		t.Fatalf("cost=%d optimal=%v, want damaging optimal schedule", sab.Cost, sab.Optimal)
	}
	w := sab.Witness
	if w == nil {
		t.Fatal("no witness on a positive-cost result")
	}
	if w.Protocol != "diffusing" || w.Params == nil {
		t.Fatalf("witness lacks catalog identity: protocol=%q params=%v", w.Protocol, w.Params)
	}
	inst, err := registry.Build(w.Protocol, *w.Params)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := w.Replay(inst.Program, inst.S, inst.T)
	if err != nil {
		t.Fatalf("witness replay: %v", err)
	}
	if rp.Cost != sab.Cost {
		t.Fatalf("replayed cost %d != claimed %d", rp.Cost, sab.Cost)
	}

	foundPass := false
	for _, p := range done.Result.Passes {
		if p.Pass == saboteur.PassSearch {
			foundPass = true
		}
	}
	if !foundPass {
		t.Fatalf("pass %q missing from result passes %v", saboteur.PassSearch, done.Result.Passes)
	}
	if got := s.metrics.SaboteurJobs.Load(); got != 1 {
		t.Fatalf("saboteur jobs counter = %d, want 1", got)
	}
	if got := s.metrics.SaboteurOptimal.Load(); got != 1 {
		t.Fatalf("saboteur optimal counter = %d, want 1", got)
	}
	if got := s.metrics.SaboteurExpanded.Load(); got <= 0 {
		t.Fatalf("saboteur expanded counter = %d, want > 0", got)
	}
}

// TestVerdictOnlyNoSaboteurOverhead pins the bench-guard property: a job
// without options.saboteur carries no saboteur block, emits no search
// pass, and moves no saboteur counter.
func TestVerdictOnlyNoSaboteurOverhead(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, s, j.ID)
	if done.State != StateDone {
		t.Fatalf("job ended %s (err %q)", done.State, done.Error)
	}
	if done.Result.Saboteur != nil {
		t.Fatal("verdict-only result grew a saboteur block")
	}
	for _, p := range done.Result.Passes {
		if p.Pass == saboteur.PassSearch {
			t.Fatal("verdict-only job ran the saboteur search pass")
		}
	}
	if got := s.metrics.SaboteurJobs.Load(); got != 0 {
		t.Fatalf("saboteur jobs counter = %d on a verdict-only job", got)
	}
	raw, err := json.Marshal(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "saboteur") {
		t.Fatalf("verdict-only result JSON mentions the saboteur:\n%s", raw)
	}
}

// TestSaboteurCacheSeparation: a verdict-only result must never answer a
// saboteur job (it lacks the witness), and vice versa; resubmitting the
// same saboteur job is a cache hit with the witness intact.
func TestSaboteurCacheSeparation(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())

	plain, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, plain.ID)

	sab, err := s.Submit(sabSpec("tokenring-ring", registry.Params{N: 3, K: 5}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if sab.Key == plain.Key {
		t.Fatal("saboteur job shares the verdict-only cache key")
	}
	done := waitTerminal(t, s, sab.ID)
	if done.Cached {
		t.Fatal("saboteur job was answered by the verdict-only cache line")
	}
	if done.Result.Saboteur == nil || done.Result.Saboteur.Witness == nil {
		t.Fatalf("saboteur result incomplete: %+v", done.Result.Saboteur)
	}

	again, err := s.Submit(sabSpec("tokenring-ring", registry.Params{N: 3, K: 5}, 2))
	if err != nil {
		t.Fatal(err)
	}
	hit := waitTerminal(t, s, again.ID)
	if !hit.Cached {
		t.Fatal("identical saboteur resubmission missed the cache")
	}
	if hit.Result.Saboteur == nil || hit.Result.Saboteur.Witness == nil {
		t.Fatal("cached saboteur result lost its witness")
	}
	// A different budget is a different cache line (the key renders the
	// normalized options).
	diff, err := s.Submit(JobSpec{Protocol: "tokenring-ring",
		Params:  registry.Params{N: 3, K: 5},
		Options: JobOptions{Saboteur: &SaboteurOptions{K: 2, Budget: 1 << 10}}})
	if err != nil {
		t.Fatal(err)
	}
	if diff.Key == sab.Key {
		t.Fatal("distinct saboteur budgets share a cache key")
	}
	waitTerminal(t, s, diff.ID)
}

// TestSaboteurSubmissionRejections: invalid knobs and non-enumerable
// instances fail at submission with the advertised bound in the error,
// never occupying a queue slot.
func TestSaboteurSubmissionRejections(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())

	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"zero k", sabSpec("diffusing", registry.Params{N: 3}, 0), "k must be in"},
		{"huge k", sabSpec("diffusing", registry.Params{N: 3}, 17), "k must be in"},
		{"bad objective", JobSpec{Protocol: "diffusing", Params: registry.Params{N: 3},
			Options: JobOptions{Saboteur: &SaboteurOptions{K: 1, Objective: "chaos"}}},
			"unknown objective"},
		{"negative budget", JobSpec{Protocol: "diffusing", Params: registry.Params{N: 3},
			Options: JobOptions{Saboteur: &SaboteurOptions{K: 1, Budget: -1}}},
			"budget must be non-negative"},
		{"non-enumerable protocol", JobSpec{Protocol: "tokenring-ring",
			Params:  registry.Params{N: 3, K: 5},
			Options: JobOptions{MaxStates: 8, Saboteur: &SaboteurOptions{K: 1}}},
			"advertised bound"},
		{"non-enumerable source", JobSpec{
			Source:  "program toy;\nvar x : 0..7;\ninvariant I : true;\naction inc closure : x < 7 -> x := x + 1;",
			Options: JobOptions{MaxStates: 4, Saboteur: &SaboteurOptions{K: 1}}},
			"advertised bound"},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.spec); err == nil {
			t.Errorf("%s: submission accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestResultRoundTripPreservesUnknownFields is the store-compatibility
// fix: a Result decoded from JSON written by a future additive producer
// must re-encode with the unknown blocks intact, including through the
// persistent store's read path.
func TestResultRoundTripPreservesUnknownFields(t *testing.T) {
	src := []byte(`{"schema_version":3,"program":"p","states":1,"states_s":1,"states_t":1,` +
		`"classification":"nonmasking","closure_ok":true,"unfair":{"converges":true,"fair":false,"summary":"ok"},` +
		`"verdict":"satisfied","elapsed_ms":1,"workers":1,` +
		`"future_block":{"answer":42},"future_flag":true}`)
	var res Result
	if err := json.Unmarshal(src, &res); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictSatisfied || res.SchemaVersion != 3 {
		t.Fatalf("known fields mangled: %+v", res)
	}
	out, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"future_block":{"answer":42}`, `"future_flag":true`, `"verdict":"satisfied"`} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("round trip lost %s:\n%s", want, out)
		}
	}

	// The same property through the service: a stored record with a
	// future block must be served (cache read path: store decode →
	// status re-encode) without dropping it.
	dir := t.TempDir()
	st := openStoreT(t, dir)
	defer st.Close()
	key := mustKey(t, ringSpec(3, 5), Config{})
	if err := st.Put(key, src); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st})
	defer s.Shutdown(context.Background())
	hit, err := s.Submit(ringSpec(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Result == nil {
		t.Fatalf("seeded store record not served: %+v", hit)
	}
	served, err := json.Marshal(hit.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(served), `"future_block":{"answer":42}`) {
		t.Fatalf("store read path dropped the future block:\n%s", served)
	}
}
