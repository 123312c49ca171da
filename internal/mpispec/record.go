// Package mpispec is the machine-readable description of the MPI
// interface that drives Pilgrim's interception layer. The real tool
// generates its PMPI wrappers from the MPI 4.0 standard's LaTeX
// sources so that every function and every parameter (with its
// direction) is captured (§3.1); this package plays that role for the
// Go reproduction: it enumerates the full MPI 4.0 C function surface
// (for the Table 1 coverage comparison) and carries precise parameter
// metadata for the subset realized by the mpi simulator.
//
// It also defines the data contract between the simulator and any
// tracer: CallRecord (one fully-populated intercepted call) and the
// Interceptor/OOB interfaces (the prologue/epilogue hooks and the
// PMPI-level out-of-band collectives the tracer itself may issue).
package mpispec

// ParamKind classifies a parameter value for signature encoding.
// Kinds matter because Pilgrim encodes different kinds differently:
// ranks get relative encoding, object handles get symbolic ids,
// pointers get (segment, offset) pairs, and plain values are stored
// as-is.
type ParamKind uint8

const (
	KInt        ParamKind = iota // plain integer value (counts, sizes, flags…)
	KRank                        // a process rank: relative-encoded (§3.4.2)
	KTag                         // a message tag: relative-encodable
	KColor                       // split color: relative-encodable
	KKey                         // split key: relative-encodable
	KComm                        // communicator handle → global symbolic id (§3.3.1)
	KDatatype                    // datatype handle → symbolic id
	KOp                          // reduction op handle → symbolic id
	KGroup                       // group handle → symbolic id
	KRequest                     // request handle → per-signature symbolic id (§3.4.3)
	KReqArray                    // array of request handles
	KStatus                      // status: only SOURCE and TAG kept (§3.3.2)
	KStatArray                   // array of statuses
	KPtr                         // memory buffer pointer → (segment id, offset) (§3.3.3)
	KString                      // NUL-terminated string value
	KIntArray                    // array of integers (counts, displs, ranks…)
	KIndexArray                  // output array of completion indices
)

// String returns the kind name.
func (k ParamKind) String() string {
	names := [...]string{"Int", "Rank", "Tag", "Color", "Key", "Comm", "Datatype",
		"Op", "Group", "Request", "ReqArray", "Status", "StatArray", "Ptr",
		"String", "IntArray", "IndexArray"}
	if int(k) < len(names) {
		return names[k]
	}
	return "Unknown"
}

// Dir is a parameter direction as given by the MPI standard.
type Dir uint8

const (
	In Dir = iota
	Out
	InOut
)

// Param describes one formal parameter of an MPI function.
type Param struct {
	Name string
	Kind ParamKind
	Dir  Dir
}

// Value is one runtime argument captured at interception time. Exactly
// one of the payload fields is meaningful, chosen by Kind:
// scalars/handles use I, arrays use Arr, strings use S, statuses use
// Arr as [source, tag] pairs.
type Value struct {
	Kind ParamKind
	I    int64
	Arr  []int64
	S    string
}

// CallRecord is one intercepted MPI call with all argument values
// populated (input values at the prologue, output values by the
// epilogue), plus timing. Args follow the Spec parameter order.
type CallRecord struct {
	Func   FuncID
	Args   []Value
	TStart int64 // call entry, virtual ns
	TEnd   int64 // call exit, virtual ns
	Rank   int   // calling rank in the world
}

// Arg reads argument i as Completion.Slots does: its integer for k < 0,
// else element k of its array, with ok false past the array's end.
func (r *CallRecord) Arg(i, k int) (int64, bool) {
	a := &r.Args[i]
	if k < 0 {
		return a.I, true
	}
	if k < len(a.Arr) {
		return a.Arr[k], true
	}
	return 0, false
}

// Interceptor is the PMPI-analog hook set. The simulator invokes Pre
// before executing a call and Post after outputs are filled in; rec is
// shared between the two. MemAlloc/MemFree mirror the malloc/free
// interception of §3.3.3.
type Interceptor interface {
	Pre(rec *CallRecord)
	Post(rec *CallRecord)
	MemAlloc(addr, size uint64, device int32)
	MemFree(addr uint64)
}

// OOB gives a tracer access to unintercepted ("PMPI-level")
// collectives for its own bookkeeping, e.g. agreeing on communicator
// symbolic ids (§3.3.1). Handles are the simulator's comm handles as
// seen in CallRecord values.
type OOB interface {
	// AllreduceMaxInt32 performs a blocking max-allreduce over the
	// group(s) of the communicator identified by handle. For
	// inter-communicators it operates over the union of both groups
	// (the "merge then allreduce" trick of §3.3.1).
	AllreduceMaxInt32(commHandle int64, v int32) int32
	// IAllreduceMaxInt32 starts a non-blocking max-allreduce and
	// returns a token to poll with PollOOB. Used for MPI_Comm_idup.
	IAllreduceMaxInt32(commHandle int64, v int32) int64
	// PollOOB reports whether the non-blocking OOB operation has
	// completed and, if so, its result.
	PollOOB(token int64) (done bool, result int32)
}
