// Package leaktest is the soak job's goroutine-baseline check as a test
// helper: note the count before the code under test starts goroutines,
// and require it back once that code has returned.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// Baseline notes the current goroutine count and returns a check that
// fails t unless the count is back at or below it. A goroutine its
// owner has joined may still be unwinding when the join returns, so the
// check polls briefly before it reports; what it reports is every
// stack still running.
func Baseline(t testing.TB) (check func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			buf := make([]byte, 1<<16)
			t.Errorf("goroutines %d -> %d: leaked\n%s", before, after, buf[:runtime.Stack(buf, true)])
		}
	}
}
