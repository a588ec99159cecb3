// Process-level smoke tests for the teemscenario CLI: flag parsing, the
// -list/-dump/-preset/-replay surfaces, and the exit-code contract the
// scenario-gate CI target depends on (non-zero on a violating corpus).
package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"teem/internal/platform"
)

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "teemscenario-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir, "teem/cmd/teemscenario")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "building teemscenario: %v\n", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "teemscenario")
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

func TestListFlag(t *testing.T) {
	out, _, code := run(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, want := range []string{"presets:", "sunlight", "rush-hour", "replay-sample", "governors:", "teem"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output lacks %q:\n%s", want, out)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	out, _, code := run(t, "-version")
	if code != 0 {
		t.Fatalf("-version exited %d", code)
	}
	if !strings.HasPrefix(out, "teemscenario ") || !strings.Contains(out, "commit") {
		t.Errorf("-version output: %q", out)
	}
}

func TestDumpIsLoadable(t *testing.T) {
	out, _, code := run(t, "-preset", "sunlight", "-dump")
	if code != 0 {
		t.Fatalf("-dump exited %d", code)
	}
	// The dump must round-trip through -f.
	path := filepath.Join(t.TempDir(), "sunlight.json")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	out2, _, code := run(t, "-f", path, "-dump")
	if code != 0 {
		t.Fatalf("-f round-trip exited %d", code)
	}
	if out != out2 {
		t.Error("dump → load → dump is not a fixed point")
	}
}

func TestPresetRunPasses(t *testing.T) {
	out, stderr, code := run(t, "-preset", "sunlight", "-govs", "ondemand")
	if code != 0 {
		t.Fatalf("passing preset exited %d: %s", code, stderr)
	}
	for _, want := range []string{"scenario × governor grid", "sunlight", "ondemand", "pass"} {
		if !strings.Contains(out, want) {
			t.Errorf("grid output lacks %q:\n%s", want, out)
		}
	}
}

// The exit-code gate: a violating corpus must exit non-zero and name the
// violation.
func TestViolatingCorpusExitsNonZero(t *testing.T) {
	violating := `{
  "name": "doomed",
  "map": {"Big": 4, "Little": 2, "UseGPU": true},
  "events": [
    {"at_s": 0, "kind": "arrival", "app": "COVARIANCE"},
    {"at_s": 5, "kind": "assert", "node": "A15", "max_c": 0.01}
  ]
}`
	path := filepath.Join(t.TempDir(), "doomed.json")
	if err := os.WriteFile(path, []byte(violating), 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, code := run(t, "-f", path, "-govs", "ondemand")
	if code == 0 {
		t.Fatalf("violating corpus exited 0:\n%s", out)
	}
	if !strings.Contains(stderr, "violation") {
		t.Errorf("stderr does not report the violation: %s", stderr)
	}
	if !strings.Contains(out, "FAIL") {
		t.Errorf("grid output does not mark the failing cell:\n%s", out)
	}
}

func TestReplayFlag(t *testing.T) {
	trace := `{
  "name": "smoke-replay",
  "records": [
    {"app": "MVT", "at_s": 0},
    {"app": "SYRK", "at_s": 2, "priority": 1}
  ]
}`
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, code := run(t, "-replay", path, "-govs", "ondemand")
	if code != 0 {
		t.Fatalf("-replay exited %d: %s", code, stderr)
	}
	if !strings.Contains(out, "smoke-replay") {
		t.Errorf("replay output lacks the compiled scenario name:\n%s", out)
	}
}

// -platform takes a bundle file as well as a catalog name, and a catalog
// bundle saved to a file runs exactly as its name does.
func TestPlatformBundleFile(t *testing.T) {
	b, err := platform.Get("merlin-m3")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "merlin-m3.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	byName, stderr, code := run(t, "-platform", "merlin-m3", "-preset", "sunlight", "-govs", "teem")
	if code != 0 {
		t.Fatalf("-platform merlin-m3 exited %d: %s", code, stderr)
	}
	byFile, stderr, code := run(t, "-platform", path, "-preset", "sunlight", "-govs", "teem")
	if code != 0 {
		t.Fatalf("-platform %s exited %d: %s", path, code, stderr)
	}
	if byFile != byName {
		t.Errorf("bundle file output differs from the catalog name's:\n%s\nwant:\n%s", byFile, byName)
	}
}

// Flag misuse and bad inputs must exit non-zero with a diagnostic.
func TestBadInputsExitNonZero(t *testing.T) {
	cases := [][]string{
		{"-preset", "no-such-preset"},
		{"-integrator", "rk4", "-preset", "sunlight"},
		{"-f", "/nonexistent/scenario.json"},
		{"-replay", "/nonexistent/trace.json"},
		{"-platform", "/nonexistent/bundle.json"},
		{"-platforms", "all", "-platform", "merlin-m3"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		_, stderr, code := run(t, args...)
		if code == 0 {
			t.Errorf("%v exited 0", args)
		}
		if stderr == "" {
			t.Errorf("%v produced no diagnostic", args)
		}
	}
	// An unresolvable platform fails up front with the resolve error: no
	// grid is rendered and nothing is counted as a violation.
	const missing = "/nonexistent/bundle.json"
	stdout, stderr, _ := run(t, "-platform", missing, "-preset", "sunlight", "-govs", "teem")
	if stdout != "" {
		t.Errorf("-platform %s rendered output:\n%s", missing, stdout)
	}
	if !strings.Contains(stderr, missing) || strings.Contains(stderr, "assertion violation") {
		t.Errorf("-platform %s: stderr %q should name the path and report no assertion violation", missing, stderr)
	}
}
