package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/solve"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestRunAllSolversWithFigures(t *testing.T) {
	out, err := capture(t, func() error {
		return run("counterdd", "", "all", "parallel", "delta", true, 30, 40, 1, 500, 2, 0, "", false)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"aligned", "beam", "ga", "Figure 3", "Figure 2", "MUX hyper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunSequentialUpload(t *testing.T) {
	out, err := capture(t, func() error {
		return run("toggle", "", "aligned", "sequential", "bit", false, 10, 10, 1, 100, 0, 0, "", false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "task-sequential") {
		t.Fatalf("upload mode not reflected:\n%s", out)
	}
}

func TestRunFromCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "reqs.csv")
	content := "A:2:2,B:1:1\n10,1\n01,0\n"
	if err := os.WriteFile(csvPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run("", csvPath, "ga", "parallel", "bit", false, 10, 10, 1, 100, 0, 0, "", false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "m=2 tasks, n=2 steps") {
		t.Fatalf("CSV instance not loaded:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := capture(t, func() error {
		return run("counter", "", "nope", "parallel", "bit", false, 10, 10, 1, 100, 0, 0, "", false)
	}); err == nil {
		t.Fatal("accepted unknown solver")
	}
	if _, err := capture(t, func() error {
		return run("counter", "", "ga", "nope", "bit", false, 10, 10, 1, 100, 0, 0, "", false)
	}); err == nil {
		t.Fatal("accepted unknown upload mode")
	}
	if _, err := capture(t, func() error {
		return run("counter", "", "ga", "parallel", "nope", false, 10, 10, 1, 100, 0, 0, "", false)
	}); err == nil {
		t.Fatal("accepted unknown granularity")
	}
	if _, err := capture(t, func() error {
		return run("nope", "", "ga", "parallel", "bit", false, 10, 10, 1, 100, 0, 0, "", false)
	}); err == nil {
		t.Fatal("accepted unknown app")
	}
	if _, err := capture(t, func() error {
		return run("", "/nonexistent.csv", "ga", "parallel", "bit", false, 10, 10, 1, 100, 0, 0, "", false)
	}); err == nil {
		t.Fatal("accepted missing CSV")
	}
}

func TestRunStatsFlag(t *testing.T) {
	out, err := capture(t, func() error {
		return run("toggle", "", "aligned", "parallel", "bit", false, 10, 10, 1, 100, 0, 0, "", true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "stats: states=") || !strings.Contains(out, "wall=") {
		t.Fatalf("-stats did not print run statistics:\n%s", out)
	}
}

func TestUnknownSolverErrorListsRegistered(t *testing.T) {
	_, err := capture(t, func() error {
		return run("counter", "", "nope", "parallel", "bit", false, 10, 10, 1, 100, 0, 0, "", false)
	})
	var unknown *solve.UnknownSolverError
	if !errors.As(err, &unknown) {
		t.Fatalf("error %v (%T) is not an UnknownSolverError", err, err)
	}
	if len(unknown.Registered) == 0 {
		t.Fatalf("typed error carries no registered solvers: %v", err)
	}
}
