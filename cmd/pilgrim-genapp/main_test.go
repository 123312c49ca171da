package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/trace"
)

// asMainEnv makes the test binary behave as pilgrim-genapp itself, so
// the tests below drive the real main — flags, exit code, stdout and
// stderr — without needing a Go toolchain at test time.
const asMainEnv = "PILGRIM_GENAPP_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs pilgrim-genapp with args and returns its stdout, stderr and
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

// TestGenappWritesAProgram: the program generated from a golden trace
// parses as Go, holds one sigTable row per CST entry, and defines the
// start rule g<i>r0 of every grammar.
func TestGenappWritesAProgram(t *testing.T) {
	const golden = "../../testdata/golden/cg_8x3.pilgrim"
	f, err := trace.Load(golden)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "proxy", "main.go")
	stdout, stderr, code := run(t, "-o", out, golden)
	if code != 0 || !strings.HasPrefix(stdout, "generated "+out) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 0 and \"generated %s\"", code, stdout, stderr, out)
	}
	src, err := parser.ParseFile(token.NewFileSet(), out, nil, 0)
	if err != nil {
		t.Fatalf("generated source does not parse: %v", err)
	}
	rows := -1
	funcs := map[string]bool{}
	for _, d := range src.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			funcs[d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && vs.Names[0].Name == "sigTable" {
					rows = len(vs.Values[0].(*ast.CompositeLit).Elts)
				}
			}
		}
	}
	if rows != f.CST.Len() {
		t.Errorf("sigTable has %d rows, the trace's CST %d entries", rows, f.CST.Len())
	}
	for i := range f.Grammars {
		if name := fmt.Sprintf("g%dr0", i); !funcs[name] {
			t.Errorf("no %s for grammar %d of %d", name, i, len(f.Grammars))
		}
	}
}

// TestGenappRefusesMissingTrace: a trace that is not there exits 1
// with one pilgrim-genapp: line and writes nothing.
func TestGenappRefusesMissingTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "main.go")
	stdout, stderr, code := run(t, "-o", out, filepath.Join(dir, "missing.pilgrim"))
	if code != 1 || !strings.HasPrefix(stderr, "pilgrim-genapp: ") || strings.Count(stderr, "\n") != 1 || stdout != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 and one pilgrim-genapp: line", code, stdout, stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("%s written for a missing trace (%v)", out, err)
	}
}
