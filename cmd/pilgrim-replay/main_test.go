package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// asMainEnv makes the test binary behave as pilgrim-replay itself, so
// the tests below drive the real main — flags, exit code, stdout and
// stderr — without needing a Go toolchain at test time.
const asMainEnv = "PILGRIM_REPLAY_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs pilgrim-replay with args and returns its stdout, stderr and
// exit code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	// A race-enabled binary sleeps a second at exit unless told not to.
	cmd.Env = append(os.Environ(), asMainEnv+"=1", "GORACE=atexit_sleep_ms=0 "+os.Getenv("GORACE"))
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

const golden = "../../internal/replay/testdata/golden/"

// TestReplayVerifiesKitchenSink: -verify replays both kitchen-sink
// goldens — every function family, intercommunicators, aggregated and
// lossy timing — re-traces the replay and finds the traces identical.
func TestReplayVerifiesKitchenSink(t *testing.T) {
	for _, name := range []string{"kitchen_sink_6.pilgrim", "kitchen_sink_6_lossy.pilgrim"} {
		out, stderr, code := run(t, "-verify", golden+name)
		if code != 0 || !strings.Contains(out, "traces identical") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 0 and \"traces identical\"", name, code, out, stderr)
		}
	}
}

// TestReplayRefusesTruncatedTrace: a trace cut to 100 bytes exits 1
// with the tool's own message, not a panic, and replays nothing.
func TestReplayRefusesTruncatedTrace(t *testing.T) {
	data, err := os.ReadFile(golden + "kitchen_sink_6.pilgrim")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.pilgrim")
	if err := os.WriteFile(path, data[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{path}, {"-verify", path}} {
		out, stderr, code := run(t, args...)
		if code != 1 || !strings.HasPrefix(stderr, "pilgrim-replay: ") || strings.Contains(stderr, "panic") || out != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and one pilgrim-replay: message", args, code, out, stderr)
		}
	}
}
