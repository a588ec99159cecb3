// Process-level tests for the teemeval CLI's flag contract.
package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "teemeval-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir, "teem/cmd/teemeval")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "building teemeval: %v\n", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "teemeval")
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary and returns stdout, stderr and the exit code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// An unknown -only name must fail loudly, before any experiment runs,
// and name the valid choices.
func TestOnlyRejectsUnknownExperiment(t *testing.T) {
	out, errOut, code := run(t, "-only", "bogus")
	if code != 2 {
		t.Fatalf("-only bogus exited %d, want 2", code)
	}
	if out != "" {
		t.Errorf("-only bogus printed to stdout:\n%s", out)
	}
	for _, name := range experimentNames {
		if !strings.Contains(errOut, name) {
			t.Errorf("error message does not list %q:\n%s", name, errOut)
		}
	}
}

// A valid name still runs just that experiment.
func TestOnlyRunsOneExperiment(t *testing.T) {
	out, errOut, code := run(t, "-only", "memory")
	if code != 0 {
		t.Fatalf("-only memory exited %d: %s", code, errOut)
	}
	if out == "" || strings.Contains(out, "Fig. 1") {
		t.Errorf("-only memory output is not just the memory table:\n%s", out)
	}
}
