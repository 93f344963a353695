package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nonmask/internal/protocols/registry"
	"nonmask/internal/saboteur"
	"nonmask/internal/service"
)

// csverifyBin is the command built once for the whole test binary.
var csverifyBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "csverify-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	csverifyBin = filepath.Join(dir, "csverify")
	if out, err := exec.Command("go", "build", "-o", csverifyBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build csverify: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI runs the built command and returns its stdout, stderr and error.
func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(csverifyBin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

func passNames(res *service.Result) []string {
	names := make([]string, len(res.Passes))
	for i, p := range res.Passes {
		names[i] = p.Pass
	}
	return names
}

// TestJSONMatchesService pins the front-end contract: csverify -json and
// a csserved job for the same instance report the same verdict, state
// counts and pass list.
func TestJSONMatchesService(t *testing.T) {
	stdout, stderr, err := runCLI(t, "-protocol", "tokenring-ring", "-n", "3", "-k", "5", "-json")
	if err != nil {
		t.Fatalf("csverify: %v\n%s", err, stderr)
	}
	var cli service.Result
	if err := json.Unmarshal([]byte(stdout), &cli); err != nil {
		t.Fatalf("decode: %v\n%s", err, stdout)
	}

	s := service.New(service.Config{})
	defer s.Shutdown(context.Background())
	st, err := s.Submit(service.JobSpec{Protocol: "tokenring-ring", Params: registry.Params{N: 3, K: 5}})
	if err != nil {
		t.Fatal(err)
	}
	st, _ = s.WaitJob(context.Background(), st.ID, 30*time.Second)
	if st.State != service.StateDone {
		t.Fatalf("service job %s: %s", st.State, st.Error)
	}
	srv := st.Result
	if cli.Verdict != srv.Verdict || cli.Classification != srv.Classification ||
		cli.States != srv.States || cli.StatesS != srv.StatesS || cli.StatesT != srv.StatesT {
		t.Errorf("csverify %+v\nservice %+v", cli, *srv)
	}
	if got, want := strings.Join(passNames(&cli), ","), strings.Join(passNames(srv), ","); got != want {
		t.Errorf("passes: csverify %s, service %s", got, want)
	}
}

// TestRejectsBadOptionsBeforeChecking: options the service rejects at
// submission fail the CLI before any pass runs (the -trace table stays
// empty).
func TestRejectsBadOptionsBeforeChecking(t *testing.T) {
	for _, tc := range []struct {
		flag, value, want string
	}{
		{"-strategy", "exhaustiv", "unknown strategy"},
		{"-sabotage", "99", "k must be in"},
	} {
		stdout, stderr, err := runCLI(t, "-protocol", "tokenring-ring", "-n", "3", "-k", "5",
			"-trace", tc.flag, tc.value)
		if err == nil {
			t.Errorf("%s %s: exit 0", tc.flag, tc.value)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%s %s: stderr lacks %q:\n%s", tc.flag, tc.value, tc.want, stderr)
		}
		if stdout != "" || strings.Contains(stderr, "succ_table") {
			t.Errorf("%s %s: a check ran:\n%s%s", tc.flag, tc.value, stdout, stderr)
		}
	}
}

// TestSabotageProseNamesNormalizedBudget: the saboteur report names the
// budget the search ran under, the engine default when -budget is unset.
func TestSabotageProseNamesNormalizedBudget(t *testing.T) {
	stdout, stderr, err := runCLI(t, "-protocol", "tokenring-ring", "-n", "3", "-k", "5", "-sabotage", "1")
	if err != nil {
		t.Fatalf("csverify: %v\n%s", err, stderr)
	}
	want := fmt.Sprintf("of %d budgeted nodes", saboteur.DefaultBudget)
	if !strings.Contains(stdout, "saboteur: ") || !strings.Contains(stdout, want) {
		t.Errorf("saboteur line lacks %q:\n%s", want, stdout)
	}
}
