package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/workloads"
)

// asMainEnv makes the test binary behave as pilgrim-dump itself, so the
// tests below drive the real main — flags, exit codes, stdout — without
// needing a Go toolchain at test time.
const asMainEnv = "PILGRIM_DUMP_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dump runs pilgrim-dump with args and returns its stdout, stderr and
// exit code.
func dump(t *testing.T, args ...string) (string, string, int) {
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

// TestDumpStencil traces a 16-rank stencil into a temp dir and runs the
// decode paths of the tool over it: the all-ranks summary, its -top
// form, one rank's stream, and the grammar view.
func TestDumpStencil(t *testing.T) {
	const procs, iters = 16, 50
	body, err := workloads.Get("stencil2d", iters, procs)
	if err != nil {
		t.Fatal(err)
	}
	file, stats, err := pilgrim.Run(procs, pilgrim.Options{}, body)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stencil.pilgrim")
	if err := file.Save(path); err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf("# ranks=%d timing=aggregated cst=%d grammars=%d", procs, file.CST.Len(), len(file.Grammars))

	// rows parses "<count>  <share>  <name>" lines.
	rows := func(out string) (names []string, total int64) {
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) != 3 || !strings.HasPrefix(f[2], "MPI_") {
				continue
			}
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				t.Fatalf("bad summary row %q", line)
			}
			names, total = append(names, f[2]), total+n
		}
		return names, total
	}

	out, stderr, code := dump(t, "-summary", path)
	if code != 0 || !strings.HasPrefix(out, header) {
		t.Fatalf("-summary: exit %d, stderr %q, output:\n%s", code, stderr, out)
	}
	if shapes := fmt.Sprintf("\n# %d grammars, %d shapes\n", len(file.Grammars), stats.UniqueShapes); !strings.Contains(out, shapes) {
		t.Errorf("-summary does not say %q:\n%s", shapes[1:], out)
	}
	names, total := rows(out)
	if total != stats.TotalCalls {
		t.Errorf("-summary counts %d calls, the run traced %d", total, stats.TotalCalls)
	}
	if len(names) < 4 || !strings.Contains(out, "MPI_Waitall") {
		t.Errorf("-summary lists %v", names)
	}

	out, stderr, code = dump(t, "-top", "3", path)
	if code != 0 {
		t.Fatalf("-top: exit %d, stderr %q", code, stderr)
	}
	if top, _ := rows(out); len(top) != 3 || !strings.Contains(out, fmt.Sprintf("... (%d more functions)", len(names)-3)) {
		t.Errorf("-top 3 printed %v:\n%s", top, out)
	}

	calls, err := pilgrim.DecodeRank(file, 5)
	if err != nil {
		t.Fatal(err)
	}
	out, stderr, code = dump(t, "-rank", "5", "-n", "10", path)
	if code != 0 {
		t.Fatalf("-rank: exit %d, stderr %q", code, stderr)
	}
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("[%d] avg=%dns %s\n", i, calls[i].AvgDuration, calls[i].Decoded)
		if !strings.Contains(out, want) {
			t.Errorf("-rank 5: missing line %q in:\n%s", want, out)
		}
	}
	if want := fmt.Sprintf("... (%d more calls)", len(calls)-10); !strings.Contains(out, want) {
		t.Errorf("-rank 5 -n 10: no %q", want)
	}

	out, stderr, code = dump(t, "-grammar", "-rank", "0", path)
	if code != 0 || !strings.Contains(out, "# rank 0 uses grammar") || !strings.Contains(out, "R0 ->") ||
		!strings.Contains(out, "# terminals:\nt") {
		t.Errorf("-grammar: exit %d, stderr %q, output:\n%s", code, stderr, out)
	}

	if _, stderr, code = dump(t, "-rank", "99", path); code != 1 || !strings.Contains(stderr, "out of range") {
		t.Errorf("-rank 99: exit %d, stderr %q", code, stderr)
	}
}

// TestDumpBody: the header says how the body is stored, raw bytes to
// stored bytes: deflated for a lossy stencil run past the floor, raw for
// a small run and for a file an older writer wrote.
func TestDumpBody(t *testing.T) {
	var paths []string
	for _, iters := range []int{50, 1} {
		body, err := workloads.Get("stencil2d", iters, 16)
		if err != nil {
			t.Fatal(err)
		}
		file, _, err := pilgrim.Run(16, pilgrim.Options{TimingMode: pilgrim.TimingLossy}, body)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("lossy%d.pilgrim", iters))
		if err := file.Save(path); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
		st := file.BodyStorage()
		want := map[int]string{50: "deflated", 1: "raw"}[iters]
		if st.Form != want {
			t.Fatalf("stencil2d 16 x %d stores its body %+v", iters, st)
		}
		line := fmt.Sprintf("# body: %s %dB -> %dB\n", st.Form, st.Raw, st.Stored)
		if out, stderr, code := dump(t, "-n", "1", path); code != 0 || !strings.Contains(out, line) {
			t.Errorf("%s: exit %d, stderr %q, no %q in:\n%s", path, code, stderr, line, out)
		}
	}
	older := filepath.Join("..", "..", "internal", "trace", "testdata", "v3", "osu_alltoall_16x20_lossy.pilgrim")
	if out, stderr, code := dump(t, "-n", "1", older); code != 0 || !strings.Contains(out, "# body: raw ") {
		t.Errorf("%s: exit %d, stderr %q, no raw body in:\n%s", older, code, stderr, out)
	}
}

// TestDumpCSTStorage: the header says how the CST is stored: templated
// for a fresh cg run, raw for the same trace as an older writer stored
// it, each with its entries, templates and bytes.
func TestDumpCSTStorage(t *testing.T) {
	body, err := workloads.Get("cg", 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	file, _, err := pilgrim.Run(64, pilgrim.Options{}, body)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cg.pilgrim")
	if err := file.Save(path); err != nil {
		t.Fatal(err)
	}
	st := file.CSTStorage()
	fresh := fmt.Sprintf("# cst: %d entries, %d templates, stored templated %dB (raw %dB)\n", st.Entries, st.Templates, st.Stored, st.Raw)
	older := filepath.Join("..", "..", "internal", "trace", "testdata", "v4", "cg_64x4.pilgrim")
	raw := fmt.Sprintf("# cst: %d entries, %d templates, stored raw %dB (raw %dB)\n", st.Entries, st.Templates, st.Raw, st.Raw)
	for path, want := range map[string]string{path: fresh, older: raw} {
		out, stderr, code := dump(t, "-n", "1", path)
		if code != 0 || !strings.Contains(out, want) {
			t.Errorf("%s: exit %d, stderr %q, no %q in:\n%s", path, code, stderr, want, out)
		}
	}
}

// TestDumpJournal traces through the spill, which leaves a frame-pair
// log behind, and inspects it with -journal: the manifest's identity,
// one pair per rank and no torn tail; then a torn tail once garbage is
// appended, and exit 1 for a directory holding no log.
func TestDumpJournal(t *testing.T) {
	const procs = 8
	body, err := workloads.Get("stencil2d", 5, procs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := pilgrim.Run(procs, pilgrim.Options{SpillDir: dir, MaxResidentSnapshots: 3}, body); err != nil {
		t.Fatal(err)
	}
	out, stderr, code := dump(t, "-journal", dir)
	if code != 0 || !strings.Contains(out, fmt.Sprintf("world=%d state=finalized", procs)) ||
		!strings.Contains(out, fmt.Sprintf("frames: %d pairs", procs)) || strings.Contains(out, "TORN TAIL") {
		t.Fatalf("-journal: exit %d, stderr %q, output:\n%s", code, stderr, out)
	}
	f, err := os.OpenFile(filepath.Join(dir, "local", "frames.jnl"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3})
	f.Close()
	if out, _, code = dump(t, "-journal", dir); code != 0 || !strings.Contains(out, "TORN TAIL: 3 trailing bytes") {
		t.Errorf("-journal over a torn tail: exit %d, output:\n%s", code, out)
	}
	if _, stderr, code = dump(t, "-journal", t.TempDir()); code != 1 || !strings.Contains(stderr, "no run journals") {
		t.Errorf("-journal over an empty directory: exit %d, stderr %q", code, stderr)
	}
}
