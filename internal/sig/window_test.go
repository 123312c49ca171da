package sig

import (
	"fmt"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// TestWindow walks a window through the rule both trace readers share:
// oldest first for one request, positional for arrays with repeated
// ids, persistent requests that survive completion, and
// MPI_Request_free taking the oldest.
func TestWindow(t *testing.T) {
	ids := func(v ...int64) []DecodedValue {
		out := make([]DecodedValue, len(v))
		for i, x := range v {
			out[i] = DecodedValue{Kind: mpispec.KRequest, I: x}
		}
		return out
	}
	n := func(v int64) DecodedValue { return DecodedValue{Kind: mpispec.KInt, I: v} }
	arr := func(k mpispec.ParamKind, v ...int64) DecodedValue {
		return DecodedValue{Kind: k, Arr: ids(v...)}
	}
	var w Window[string]
	resolve := func(want string, v ...int64) {
		t.Helper()
		rs, err := w.Resolve(ids(v...))
		if got := fmt.Sprint(rs, err); got != want {
			t.Errorf("Resolve%v = %s, want %s", v, got, want)
		}
	}
	complete := func(want string, f mpispec.FuncID, args ...DecodedValue) {
		t.Helper()
		got := ""
		_, completed, err := w.Complete(mpispec.CompletionOf(f), Decoded{Func: f, Args: args}, func(r string, status int) {
			got += fmt.Sprintf("%s/%d ", r, status)
		})
		if got = fmt.Sprintf("[%s] %v %v", got, completed, err); got != want {
			t.Errorf("%s: completed %s, want %s", f.Name(), got, want)
		}
	}

	// Two pools hand out id 0: the oldest answers a single request, an
	// array resolves its k-th 0 to the k-th live request, and MPI's null
	// request (-1) to none.
	w.Add(0, "isend", false)
	w.Add(0, "irecv", false)
	w.Add(1, "ibarrier", false)
	resolve("[isend] <nil>", 0)
	resolve("[isend ibarrier irecv ] <nil>", 0, 1, 0, -1)
	resolve("[isend irecv ] request slot 2: no live request with id 0", 0, 0, 0)

	// Waitsome completing the second 0 takes out irecv, not isend; a
	// Test whose flag is 0 completes nothing.
	complete("[irecv/0 ] true <nil>", mpispec.FWaitsome, n(2), arr(mpispec.KReqArray, 0, 0), n(1),
		arr(mpispec.KIndexArray, 1), arr(mpispec.KStatArray))
	complete("[] false <nil>", mpispec.FTest, ids(0)[0], n(0), DecodedValue{Kind: mpispec.KStatus})
	resolve("[isend ibarrier] <nil>", 0, 1)
	complete("[isend/-1 ] true <nil>", mpispec.FWait, ids(0)[0], DecodedValue{Kind: mpispec.KStatus})
	resolve("[] request slot 0: no live request with id 0", 0)

	// Persistent requests sharing id 2 survive every completion; a
	// single MPI_Start of id 2 names the older.
	w.Add(2, "send_init", true)
	w.Add(2, "recv_init", true)
	for range 2 {
		resolve("[send_init recv_init] <nil>", 2, 2)
		complete("[send_init/0 recv_init/1 ] true <nil>", mpispec.FWaitall, n(2), arr(mpispec.KReqArray, 2, 2),
			arr(mpispec.KStatArray))
	}
	complete("[send_init/-1 ] true <nil>", mpispec.FWait, ids(2)[0], DecodedValue{Kind: mpispec.KStatus})
	resolve("[send_init] <nil>", 2)

	// MPI_Request_free takes the oldest, persistent or not.
	for _, want := range []string{"send_init <nil>", "recv_init <nil>", " no live request with id 2"} {
		if r, err := w.Free(2); fmt.Sprintf("%s %v", r, err) != want {
			t.Errorf("Free(2) = %q, %v, want %s", r, err, want)
		}
	}
	complete("[] true request slot 0: no live request with id 2", mpispec.FTest, ids(2)[0], n(1),
		DecodedValue{Kind: mpispec.KStatus})
	resolve("[ibarrier] <nil>", 1)
}
