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

	"nonmask/internal/service"
)

const threestate = "../../testdata/threestate.gcl"

// gclrunBin is the command built once for the whole test binary.
var gclrunBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gclrun-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	gclrunBin = filepath.Join(dir, "gclrun")
	if out, err := exec.Command("go", "build", "-o", gclrunBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build gclrun: %v\n%s", err, out)
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
	cmd := exec.Command(gclrunBin, args...)
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

// TestJSONMatchesService pins the front-end contract: gclrun -json and a
// csserved source job for the same file report the same verdict, state
// counts and pass list.
func TestJSONMatchesService(t *testing.T) {
	stdout, stderr, err := runCLI(t, "-json", threestate)
	if err != nil {
		t.Fatalf("gclrun: %v\n%s", err, stderr)
	}
	var cli service.Result
	if err := json.Unmarshal([]byte(stdout), &cli); err != nil {
		t.Fatalf("decode: %v\n%s", err, stdout)
	}

	src, err := os.ReadFile(threestate)
	if err != nil {
		t.Fatal(err)
	}
	s := service.New(service.Config{})
	defer s.Shutdown(context.Background())
	st, err := s.Submit(service.JobSpec{Source: string(src)})
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
		t.Errorf("gclrun %+v\nservice %+v", cli, *srv)
	}
	if got, want := strings.Join(passNames(&cli), ","), strings.Join(passNames(srv), ","); got != want {
		t.Errorf("passes: gclrun %s, service %s", got, want)
	}
}

// TestRejectsBadOptionsBeforeChecking: options the service rejects for a
// source job fail gclrun before any pass runs (the -trace table stays
// empty).
func TestRejectsBadOptionsBeforeChecking(t *testing.T) {
	for _, tc := range []struct {
		flag, value, want string
	}{
		{"-strategy", "exhaustiv", "unknown strategy"},
		{"-space-mode", "quotient", "GCL sources have none"},
	} {
		stdout, stderr, err := runCLI(t, "-trace", tc.flag, tc.value, threestate)
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

// TestTooLargeStopsAtValidation: a space over the resolved cap ends the
// prose report after validation, successfully.
func TestTooLargeStopsAtValidation(t *testing.T) {
	stdout, stderr, err := runCLI(t, "-max-states", "10", threestate)
	if err != nil {
		t.Fatalf("gclrun: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "stopping at validation") || strings.Contains(stdout, "exact model checking") {
		t.Errorf("over-cap source was checked:\n%s", stdout)
	}
}
