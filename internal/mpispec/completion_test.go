package mpispec

import (
	"fmt"
	"testing"
)

// TestCompletionDescriptors checks the descriptors read off Spec: the
// eight completion calls have one, naming parameters of the kinds
// their names promise, and no other function has one.
func TestCompletionDescriptors(t *testing.T) {
	blocking := map[FuncID]bool{FWait: true, FWaitall: true, FWaitany: true, FWaitsome: true,
		FTest: false, FTestall: false, FTestany: false, FTestsome: false}
	for id := FuncID(0); id < NumFuncs; id++ {
		c := CompletionOf(id)
		wantBlocking, eight := blocking[id]
		if !eight {
			if c != nil {
				t.Errorf("%s has a completion descriptor", id.Name())
			}
			continue
		}
		if c == nil {
			t.Errorf("%s has no completion descriptor", id.Name())
			continue
		}
		params := Spec[id].Params
		named := 0
		for _, p := range []struct {
			name string
			at   int
			kind ParamKind
		}{
			{"count", c.Count, KInt}, {"request", c.Request, KRequest}, {"requests", c.Requests, KReqArray},
			{"flag", c.Flag, KInt}, {"index", c.Index, KInt}, {"outcount", c.Outcount, KInt},
			{"indices", c.Indices, KIndexArray}, {"status", c.Status, KStatus}, {"statuses", c.Statuses, KStatArray},
		} {
			if p.at < 0 {
				continue
			}
			named++
			if got := params[p.at].Kind; got != p.kind {
				t.Errorf("%s: %s (parameter %d) is %v, want %v", id.Name(), p.name, p.at, got, p.kind)
			}
		}
		if named != len(params) {
			t.Errorf("%s: descriptor names %d of %d parameters", id.Name(), named, len(params))
		}
		if (c.Request >= 0) == (c.Requests >= 0) || (c.Requests >= 0) != (c.Count >= 0) {
			t.Errorf("%s: want one request or a counted request array: %+v", id.Name(), *c)
		}
		if (c.Status >= 0) == (c.Statuses >= 0) || (c.Indices >= 0) != (c.Outcount >= 0) {
			t.Errorf("%s: want one status or a status array, and indices with their count: %+v", id.Name(), *c)
		}
		if c.Blocking != wantBlocking {
			t.Errorf("%s: Blocking = %v", id.Name(), c.Blocking)
		}
	}
}

// TestCompletionSlots reads each call's completed slots off recorded
// arguments, including the outcomes that complete nothing.
func TestCompletionSlots(t *testing.T) {
	i := func(v int64) Value { return Value{Kind: KInt, I: v} }
	arr := func(k ParamKind, v ...int64) Value { return Value{Kind: k, Arr: v} }
	req, st := Value{Kind: KRequest, I: 7}, arr(KStatus, 1, 2)
	reqs := arr(KReqArray, 10, 0, 12)
	sts := func(n int) Value { return arr(KStatArray, make([]int64, 2*n)...) }
	for _, tc := range []struct {
		f    FuncID
		args []Value
		want string
	}{
		{FWait, []Value{req, st}, "7@0/-1 "},
		{FTest, []Value{req, i(0), st}, "none"},
		{FTest, []Value{req, i(1), st}, "7@0/-1 "},
		{FWaitall, []Value{i(3), reqs, sts(3)}, "10@0/0 0@1/1 12@2/2 "},
		{FWaitall, []Value{i(0), arr(KReqArray), sts(0)}, ""},
		{FTestall, []Value{i(3), reqs, i(0), sts(0)}, "none"},
		{FTestall, []Value{i(3), reqs, i(1), sts(3)}, "10@0/0 0@1/1 12@2/2 "},
		{FWaitany, []Value{i(3), reqs, i(-3), st}, ""},
		{FWaitany, []Value{i(3), reqs, i(2), st}, "12@2/-1 "},
		{FWaitany, []Value{i(3), reqs, i(3), st}, ""},
		{FTestany, []Value{i(3), reqs, i(-3), i(0), st}, "none"},
		{FTestany, []Value{i(3), reqs, i(0), i(1), st}, "10@0/-1 "},
		{FWaitsome, []Value{i(3), reqs, i(0), arr(KIndexArray), sts(0)}, ""},
		{FWaitsome, []Value{i(3), reqs, i(2), arr(KIndexArray, 2, 0), sts(2)}, "12@2/0 10@0/1 "},
		{FTestsome, []Value{i(3), reqs, i(0), Value{Kind: KIndexArray}, sts(0)}, ""},
		{FTestsome, []Value{i(3), reqs, i(2), arr(KIndexArray, 1, -3, 9), sts(3)}, "0@1/0 "},
	} {
		rec := &CallRecord{Func: tc.f, Args: tc.args}
		got := ""
		if !CompletionOf(tc.f).Slots(rec.Arg, func(req int64, slot, status int) {
			got += fmt.Sprintf("%d@%d/%d ", req, slot, status)
		}) {
			got = "none"
		}
		if got != tc.want {
			t.Errorf("%s%v: slots %q, want %q", tc.f.Name(), tc.args, got, tc.want)
		}
	}
}
