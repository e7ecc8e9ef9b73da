package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckCorpus(t *testing.T) {
	var out, errB bytes.Buffer
	code := run([]string{"check", filepath.Join("..", "..", "scenarios")}, &out, &errB)
	if code != 0 {
		t.Fatalf("check failed (%d): %s", code, errB.String())
	}
	if got := strings.Count(out.String(), " OK "); got < 6 {
		t.Fatalf("check validated %d scenarios, want >= 6:\n%s", got, out.String())
	}
}

func TestCheckRejectsBadSpec(t *testing.T) {
	var out, errB bytes.Buffer
	bad := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(bad, []byte("name: broken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"check", bad}, &out, &errB); code == 0 {
		t.Fatal("invalid spec must fail check")
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errB bytes.Buffer
	if code := run(nil, &out, &errB); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"frob", "x"}, &out, &errB); code != 2 {
		t.Fatalf("unknown verb: exit %d, want 2", code)
	}
}

// TestRunViolationExitsNonZero exercises the full CLI failure
// contract in-process: the deliberately violating scenario must exit
// non-zero and print the correlated trace. Gated behind -short.
func TestRunViolationExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full scenario")
	}
	var out, errB bytes.Buffer
	spec := filepath.Join("..", "..", "internal", "scenario", "testdata", "violation-lost-quorum.yaml")
	code := run([]string{"-inproc", "-dir", t.TempDir(), "run", spec}, &out, &errB)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errB.String())
	}
	if !strings.Contains(errB.String(), "violation:") {
		t.Fatalf("stderr missing violations:\n%s", errB.String())
	}
	if !strings.Contains(errB.String(), "correlated decision trace") {
		t.Fatalf("stderr missing the trace dump:\n%s", errB.String())
	}
}

// TestRunCorpusInproc is the cheap end-to-end path of the CLI wiring:
// `-inproc run` on one in-process scenario and one process-only one.
// internal/scenario's TestCorpus runs every in-process scenario; this
// test checks only that the CLI runs, skips and reports them. Gated
// behind -short (the CI scenarios job runs the real-binary corpus).
func TestRunCorpusInproc(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full scenario")
	}
	var out, errB bytes.Buffer
	dir := filepath.Join("..", "..", "scenarios")
	code := run([]string{"-inproc", "-scale", "0.5", "-dir", t.TempDir(), "run",
		filepath.Join(dir, "steady-state-quorum.yaml"),
		filepath.Join(dir, "suspicion-eviction-then-refute.yaml")}, &out, &errB)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errB.String())
	}
	for _, want := range []string{"PASS", "SKIP (process-only"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("no %q line:\n%s", want, out.String())
		}
	}
}
