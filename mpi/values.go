package mpi

import "github.com/hpcrepro/pilgrim/internal/mpispec"

// Value is the captured-argument type used in CallRecords.
type Value = mpispec.Value

// Value constructors used when building CallRecords. Kept tiny so the
// per-call wrappers read like the generated prologue/epilogue code.

func vInt(v int) mpispec.Value   { return mpispec.Value{Kind: mpispec.KInt, I: int64(v)} }
func vRank(v int) mpispec.Value  { return mpispec.Value{Kind: mpispec.KRank, I: int64(v)} }
func vTag(v int) mpispec.Value   { return mpispec.Value{Kind: mpispec.KTag, I: int64(v)} }
func vColor(v int) mpispec.Value { return mpispec.Value{Kind: mpispec.KColor, I: int64(v)} }
func vKey(v int) mpispec.Value   { return mpispec.Value{Kind: mpispec.KKey, I: int64(v)} }
func vComm(c *Comm) mpispec.Value {
	if c == nil {
		return mpispec.Value{Kind: mpispec.KComm, I: 0}
	}
	// Arr[0] carries the caller's rank within the communicator: the
	// real tool obtains it via PMPI_Comm_rank, and the tracer needs it
	// for relative-rank encoding (§3.4.2).
	return mpispec.Value{Kind: mpispec.KComm, I: c.handle, Arr: []int64{int64(c.myRank)}}
}
func vType(d *Datatype) mpispec.Value {
	if d == nil {
		return mpispec.Value{Kind: mpispec.KDatatype, I: 0}
	}
	return mpispec.Value{Kind: mpispec.KDatatype, I: d.handle}
}
func vOp(o *Op) mpispec.Value {
	if o == nil {
		return mpispec.Value{Kind: mpispec.KOp, I: 0}
	}
	return mpispec.Value{Kind: mpispec.KOp, I: o.handle}
}
func vGroup(g *Group) mpispec.Value {
	if g == nil {
		return mpispec.Value{Kind: mpispec.KGroup, I: 0}
	}
	return mpispec.Value{Kind: mpispec.KGroup, I: g.handle}
}
func vReq(r *Request) mpispec.Value {
	if r == nil {
		return mpispec.Value{Kind: mpispec.KRequest, I: 0}
	}
	return mpispec.Value{Kind: mpispec.KRequest, I: r.handle}
}
func vReqArray(rs []*Request) mpispec.Value {
	arr := make([]int64, len(rs))
	for i, r := range rs {
		if r != nil {
			arr[i] = r.handle
		}
	}
	return mpispec.Value{Kind: mpispec.KReqArray, Arr: arr}
}
func vPtr(p Ptr) mpispec.Value       { return mpispec.Value{Kind: mpispec.KPtr, I: int64(p.addr)} }
func vString(s string) mpispec.Value { return mpispec.Value{Kind: mpispec.KString, S: s} }
func vIntArray(a []int) mpispec.Value {
	arr := make([]int64, len(a))
	for i, v := range a {
		arr[i] = int64(v)
	}
	return mpispec.Value{Kind: mpispec.KIntArray, Arr: arr}
}
func vStatus() mpispec.Value     { return mpispec.Value{Kind: mpispec.KStatus, Arr: []int64{0, 0}} }
func vStatArray() mpispec.Value  { return mpispec.Value{Kind: mpispec.KStatArray} }
func vIndexArray() mpispec.Value { return mpispec.Value{Kind: mpispec.KIndexArray} }

// setStatus fills a KStatus value from a completed Status (only
// SOURCE and TAG are preserved by the tracer, per §3.3.2, but the
// record carries both).
func setStatus(v *mpispec.Value, st Status) {
	v.Arr = []int64{int64(st.Source), int64(st.Tag)}
}

// setStatArray fills a KStatArray value with [source, tag] pairs.
func setStatArray(v *mpispec.Value, sts []Status) {
	arr := make([]int64, 0, 2*len(sts))
	for _, st := range sts {
		arr = append(arr, int64(st.Source), int64(st.Tag))
	}
	v.Arr = arr
}

// setIndexArray fills a KIndexArray value.
func setIndexArray(v *mpispec.Value, idx []int) {
	arr := make([]int64, len(idx))
	for i, x := range idx {
		arr[i] = int64(x)
	}
	v.Arr = arr
}
