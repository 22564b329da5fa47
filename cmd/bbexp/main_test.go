package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestMain lets tests re-exec this binary as bbexp itself: with
// BBEXP_BE_MAIN set, the test binary runs main() with its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("BBEXP_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// bbexp runs the command with the given args and returns its stdout with
// the wall-clock timing lines stripped (everything else is deterministic).
func bbexp(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BBEXP_BE_MAIN=1")
	out, err := cmd.Output()
	var kept []string
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.Contains(line, "completed in") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n"), err
}

// TestKillAndResume pins the crash-safety contract end to end: a run
// killed mid-sweep leaves a journal with complete positions plus a torn
// tail, and rerunning with -resume reproduces the aggregate output
// byte-for-byte.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	// -timeout 0 keeps every recovery on the deterministic list path, so
	// recomputed positions match journaled ones exactly.
	flags := []string{"-quick", "-runs", "2", "-procs", "2", "-timeout", "0",
		"-seed", "7", "-csv", "-journal", journal}

	want, err := bbexp(t, append(flags, "fault-sweep")...)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines, want one per sweep position", len(lines))
	}

	// "Kill" the run after two positions: two intact lines, one torn append.
	torn := lines[0] + lines[1] + `{"key":"pos[2]:`
	if err := os.WriteFile(journal, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := bbexp(t, append(flags, "-resume", "fault-sweep")...)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got != want {
		t.Fatalf("resumed output differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

func TestResumeNeedsJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	if _, err := bbexp(t, "-resume", "fig3a"); err == nil {
		t.Fatal("-resume without -journal accepted")
	}
}

// TestExperimentList pins bbexp's figures and their presentation order:
// the harness's eleven, then the three serving figures.
func TestExperimentList(t *testing.T) {
	want := []string{"fig3a", "fig3b", "fig3c", "fig3c-scaled", "fig3a-tie",
		"disc-parallelism", "disc-ccr", "disc-upperbound", "disc-memory",
		"fault-sweep", "partition-sweep", "dist-sweep", "grid-sweep", "serve-sweep"}
	got := exp.IDs(experiments)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("experiments = %v, want %v", got, want)
	}
	for _, id := range want {
		if run, err := exp.ByName(experiments, id); err != nil || run == nil {
			t.Errorf("ByName(%q): %v", id, err)
		}
	}
	_, err := exp.ByName(experiments, "nope")
	if err == nil || !strings.Contains(err.Error(), "(want "+strings.Join(want, ", ")+")") {
		t.Fatalf("unknown ID: err = %v, want one listing every ID", err)
	}
}

func TestParseProcs(t *testing.T) {
	got, err := parseProcs("2, 3,4")
	if err != nil || len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("parseProcs: %v %v", got, err)
	}
	for _, bad := range []string{"", "x", "2,,3"} {
		if _, err := parseProcs(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
