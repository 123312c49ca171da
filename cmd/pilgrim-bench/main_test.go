package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// asMainEnv makes the test binary behave as pilgrim-bench itself, so
// the tests below drive the real main — flags, exit codes, output
// files — without needing a Go toolchain at test time.
const asMainEnv = "PILGRIM_BENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// bench runs pilgrim-bench with args and returns its stdout, stderr and
// exit code.
func bench(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

// TestUnknownExperimentRefused: a name that matches no experiment — a
// typo, or one that no longer exists — exits 1 naming the valid ones,
// and runs nothing, even when the list also holds a valid name.
func TestUnknownExperimentRefused(t *testing.T) {
	for _, exp := range []string{"collect", "table1,finalize", "stencl", ""} {
		dir := t.TempDir()
		out, stderr, code := bench(t, "-exp", exp, "-json="+dir)
		if code != 1 || !strings.Contains(stderr, "unknown experiment") ||
			!strings.Contains(stderr, "table1, stencil") || !strings.Contains(stderr, "finalize_mem, all") {
			t.Errorf("-exp %q: exit %d, stderr %q", exp, code, stderr)
		}
		if out != "" {
			t.Errorf("-exp %q ran something:\n%s", exp, out)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("-exp %q wrote %d files", exp, len(files))
		}
	}
}

// TestTable1JSON runs the one experiment that needs no simulation and
// checks its table and BENCH_table1.json.
func TestTable1JSON(t *testing.T) {
	dir := t.TempDir()
	out, stderr, code := bench(t, "-exp", " table1 ", "-json="+dir)
	if code != 0 || !strings.Contains(out, "(table1 took") {
		t.Fatalf("exit %d, stderr %q, output:\n%s", code, stderr, out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_table1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Experiment string         `json:"experiment"`
		Scale      string         `json:"scale"`
		Result     map[string]any `json:"result"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Experiment != "table1" || rec.Scale != "quick" || len(rec.Result) == 0 {
		t.Fatalf("BENCH_table1.json = %s", data)
	}
}
