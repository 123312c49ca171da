package sig_test

import (
	"path/filepath"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// TestSplitJoinGoldens runs the Split/Join oracle over every CST entry
// of every golden trace and trace read fixture.
func TestSplitJoinGoldens(t *testing.T) {
	var paths []string
	for _, pattern := range []string{
		"../../testdata/golden/*.pilgrim",
		"../replay/testdata/golden/*.pilgrim",
		"../trace/testdata/v*/*.pilgrim",
	} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) < 30 {
		t.Fatalf("only %d traces found", len(paths))
	}
	entries := 0
	for _, path := range paths {
		f, err := trace.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i := 0; i < f.CST.Len(); i++ {
			if b := f.CST.Sig(int32(i)); len(b) > 0 && b[0] != 's' { // the synthetic fixture's "sig%d" entries
				sig.CheckSplitJoin(t, b)
				entries++
			}
		}
	}
	t.Logf("%d entries of %d traces", entries, len(paths))
}
