// Package mpi is a simulated MPI runtime in pure Go. It exists so that
// the Pilgrim tracer reproduction has a real substrate to intercept:
// ranks are goroutines, point-to-point messages obey MPI matching
// semantics (tags, wildcards, non-overtaking order), non-blocking
// operations complete asynchronously and non-deterministically,
// collectives synchronize whole communicators, and communicators,
// groups, derived datatypes and Cartesian topologies behave like their
// MPI counterparts.
//
// Every call is delivered to an optional per-process Interceptor as a
// fully-populated CallRecord (all arguments, in and out, plus virtual
// timestamps), playing the role of the PMPI profiling layer that the
// real Pilgrim uses. The runtime also exposes out-of-band collectives
// (see OOB) so a tracer can do its own bookkeeping — e.g. agreeing on
// communicator symbolic ids — without those operations appearing in
// the trace, exactly like calling PMPI_ functions from a wrapper.
//
// The simulator tracks a virtual clock per rank (advanced by a simple
// latency/bandwidth/noise model and by explicit Compute calls), which
// gives the tracer realistic durations and intervals to compress.
package mpi

import (
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// Special rank values, mirroring MPI.
const (
	ProcNull  = -1 // MPI_PROC_NULL: operations complete immediately, no data
	AnySource = -2 // MPI_ANY_SOURCE
	AnyTag    = -1 // MPI_ANY_TAG (tags are otherwise >= 0)
	Undefined = -3 // MPI_UNDEFINED
)

// Comm comparison results (MPI_Comm_compare).
const (
	Ident     = 0
	Congruent = 1
	Similar   = 2
	Unequal   = 3
)

// Comm split types.
const (
	CommTypeShared = 1 // MPI_COMM_TYPE_SHARED
)

// Status describes a completed receive, as in MPI_Status. Count is in
// bytes received; Source and Tag identify the matched message.
type Status struct {
	Source    int
	Tag       int
	Count     int
	Cancelled bool
	Error     int
}

// StatusIgnore mirrors MPI_STATUS_IGNORE: pass nil *Status instead.

// Op identifies a reduction operation.
type Op struct {
	handle  int64
	name    string
	combine func(dst, src []byte, dt *Datatype)
	commute bool
	user    bool
}

// Handle returns the runtime handle of the op (for interception).
func (o *Op) Handle() int64 { return o.handle }

// Predefined reduction operations. The combine functions operate on
// int64 or float64 lanes depending on the datatype.
var (
	OpSum  = &Op{handle: mpispec.OpHandleBase + 0, name: "MPI_SUM", combine: combineSum, commute: true}
	OpMax  = &Op{handle: mpispec.OpHandleBase + 1, name: "MPI_MAX", combine: combineMax, commute: true}
	OpMin  = &Op{handle: mpispec.OpHandleBase + 2, name: "MPI_MIN", combine: combineMin, commute: true}
	OpProd = &Op{handle: mpispec.OpHandleBase + 3, name: "MPI_PROD", combine: combineProd, commute: true}
	OpLand = &Op{handle: mpispec.OpHandleBase + 4, name: "MPI_LAND", combine: combineLand, commute: true}
	OpLor  = &Op{handle: mpispec.OpHandleBase + 5, name: "MPI_LOR", combine: combineLor, commute: true}
	OpBand = &Op{handle: mpispec.OpHandleBase + 6, name: "MPI_BAND", combine: combineBand, commute: true}
	OpBor  = &Op{handle: mpispec.OpHandleBase + 7, name: "MPI_BOR", combine: combineBor, commute: true}

	predefinedOps = []*Op{OpSum, OpMax, OpMin, OpProd, OpLand, OpLor, OpBand, OpBor}
)

// PredefinedOp returns the predefined op with symbolic id id, or nil:
// its handle's offset in mpispec's op range.
func PredefinedOp(id int64) *Op {
	if id >= 0 && id < int64(len(predefinedOps)) {
		return predefinedOps[id]
	}
	return nil
}

// Predefined objects take their handles from mpispec's layout, shared
// by all ranks; per-process objects allocate upward from hDynamicBase.
const hDynamicBase = 256

// Ptr is a typed pointer into a simulated allocation: the address is
// what a tracer sees; the data slice is what the runtime moves.
type Ptr struct {
	addr uint64
	data []byte
}

// Addr returns the simulated address (0 for the nil pointer).
func (p Ptr) Addr() uint64 { return p.addr }

// Bytes returns the addressable payload.
func (p Ptr) Bytes() []byte { return p.data }

// NilPtr is the null buffer (e.g. MPI_IN_PLACE stand-in or zero-size
// transfers).
var NilPtr = Ptr{}

// Buffer is a simulated heap allocation obtained from Proc.Alloc. Its
// base address is unique within the owning process, and allocation /
// release are reported to the interceptor like malloc/free.
type Buffer struct {
	proc   *Proc
	addr   uint64
	data   []byte
	device int32
	freed  bool
}

// Addr returns the simulated base address.
func (b *Buffer) Addr() uint64 { return b.addr }

// Len returns the allocation size in bytes.
func (b *Buffer) Len() int { return len(b.data) }

// Device returns the simulated device id (0 = host).
func (b *Buffer) Device() int32 { return b.device }

// Bytes returns the whole allocation.
func (b *Buffer) Bytes() []byte { return b.data }

// Ptr returns a pointer at byte offset off into the buffer. Passing
// interior pointers to MPI calls exercises the tracer's
// (segment id, displacement) encoding.
func (b *Buffer) Ptr(off int) Ptr {
	if off < 0 || off > len(b.data) {
		panic(fmt.Sprintf("mpi: offset %d outside buffer of %d bytes", off, len(b.data)))
	}
	return Ptr{addr: b.addr + uint64(off), data: b.data[off:]}
}

// Free releases the buffer and notifies the interceptor.
func (b *Buffer) Free() {
	if b.freed {
		return
	}
	b.freed = true
	if ic := b.proc.interceptor; ic != nil {
		ic.MemFree(b.addr)
	}
}

// Interceptor re-exports the hook interface tracers implement.
type Interceptor = mpispec.Interceptor

// CallRecord re-exports the intercepted-call record type.
type CallRecord = mpispec.CallRecord
