package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// asMainEnv makes the test binary behave as pilgrim-analyze itself, so
// the tests below drive the real main — flags, exit code, stdout —
// without needing a Go toolchain at test time.
const asMainEnv = "PILGRIM_ANALYZE_RUN_MAIN"

var update = flag.Bool("update", false, "rewrite testdata/*.txt from the current output")

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	flag.Parse()
	os.Exit(m.Run())
}

// goldenTraces are every golden trace the repository keeps: the
// skeletons' and the replay package's (kitchen sink, completions).
func goldenTraces(t *testing.T) []string {
	t.Helper()
	var paths []string
	for _, pattern := range []string{"../../testdata/golden/*.pilgrim", "../../internal/replay/testdata/golden/*.pilgrim"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) != 25 {
		t.Fatalf("found %d golden traces, want 25", len(paths))
	}
	return paths
}

// TestAnalyzeGoldenOutput runs the matrix, profile and critical-path
// views over every golden trace and compares the output with
// testdata/<trace>.txt. The output must not depend on the schedule:
// the tool runs at the test's GOMAXPROCS, which -cpu varies.
func TestAnalyzeGoldenOutput(t *testing.T) {
	procs := strconv.Itoa(runtime.GOMAXPROCS(0))
	for _, path := range goldenTraces(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".pilgrim")
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-comm-matrix", "-profile", "-critical-path", "-top", "20", path)
			// A race-enabled binary sleeps a second at exit unless told
			// not to; the tool has no goroutine left by then.
			cmd.Env = append(os.Environ(), asMainEnv+"=1", "GOMAXPROCS="+procs,
				"GORACE=atexit_sleep_ms=0 "+os.Getenv("GORACE"))
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v, stderr %q", err, stderr.String())
			}
			want := filepath.Join("testdata", name+".txt")
			if *update {
				if err := os.WriteFile(want, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), golden) {
				t.Errorf("GOMAXPROCS=%s: output differs from %s:\n%s", procs, want, stdout.String())
			}
		})
	}
}
