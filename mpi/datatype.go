package mpi

import (
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// baseKindT distinguishes the primitive element a datatype bottoms out
// in; reductions pick their lane arithmetic from it.
type baseKindT uint8

const (
	baseInt baseKindT = iota
	baseFloat32
	baseFloat64
	baseByteK
)

// typeKind records how a derived datatype was constructed, so the
// trace can recreate its layout.
type typeKind uint8

const (
	tkNamed typeKind = iota
	tkContiguous
	tkVector
	tkIndexed
	tkStruct
	tkDup
)

// Datatype describes an MPI datatype. Named (predefined) types have
// well-known handles shared across ranks; derived types are created
// per process via the Type_* calls and must be committed before use.
type Datatype struct {
	handle    int64
	name      string
	kind      typeKind
	size      int // total bytes of actual data per element
	extent    int // span in bytes (size of one element's footprint)
	base      baseKindT
	lane      int // size of one primitive lane for reductions
	committed bool
	freed     bool

	// construction arguments, preserved for the trace
	oldtype *Datatype
	count   int
	blocks  []int
	displs  []int
}

// Handle returns the runtime handle (predefined types share handles
// across all ranks).
func (d *Datatype) Handle() int64 { return d.handle }

// Size returns the number of data bytes in one element of the type.
func (d *Datatype) Size() int { return d.size }

// Extent returns the span of the type in bytes.
func (d *Datatype) Extent() int { return d.extent }

// Name returns the type name (predefined) or a constructor tag.
func (d *Datatype) Name() string { return d.name }

func (d *Datatype) baseKind() baseKindT { return d.base }
func (d *Datatype) laneSize() int       { return d.lane }

// LaneSize returns the size in bytes of one primitive element of the
// type (what MPI_Get_elements counts).
func (d *Datatype) LaneSize() int { return d.lane }

func named(off int64, name string, size int, base baseKindT) *Datatype {
	return &Datatype{handle: mpispec.TypeHandleBase + off, name: name, kind: tkNamed,
		size: size, extent: size, base: base, lane: size, committed: true}
}

// Predefined datatypes (a representative subset of the MPI basic
// types; all ranks share these objects and handles).
var (
	Byte         = named(0, "MPI_BYTE", 1, baseByteK)
	Char         = named(1, "MPI_CHAR", 1, baseInt)
	Int          = named(2, "MPI_INT", 4, baseInt)
	Long         = named(3, "MPI_LONG", 8, baseInt)
	Float        = named(4, "MPI_FLOAT", 4, baseFloat32)
	Double       = named(5, "MPI_DOUBLE", 8, baseFloat64)
	Short        = named(6, "MPI_SHORT", 2, baseInt)
	Unsigned     = named(7, "MPI_UNSIGNED", 4, baseInt)
	LongLong     = named(8, "MPI_LONG_LONG", 8, baseInt)
	Int8T        = named(9, "MPI_INT8_T", 1, baseInt)
	Int16T       = named(10, "MPI_INT16_T", 2, baseInt)
	Int32T       = named(11, "MPI_INT32_T", 4, baseInt)
	Int64T       = named(12, "MPI_INT64_T", 8, baseInt)
	UnsignedChar = named(13, "MPI_UNSIGNED_CHAR", 1, baseInt)
	DoubleInt    = named(14, "MPI_DOUBLE_INT", 16, baseFloat64)

	predefined = []*Datatype{Byte, Char, Int, Long, Float, Double, Short, Unsigned,
		LongLong, Int8T, Int16T, Int32T, Int64T, UnsignedChar, DoubleInt}
)

// PredefinedType returns the predefined datatype with symbolic id id,
// or nil: its handle's offset in mpispec's datatype range.
func PredefinedType(id int64) *Datatype {
	if id >= 0 && id < int64(len(predefined)) {
		return predefined[id]
	}
	return nil
}

func (d *Datatype) checkUsable() error {
	if d == nil {
		return fmt.Errorf("mpi: nil datatype")
	}
	if d.freed {
		return fmt.Errorf("mpi: datatype %s used after free", d.name)
	}
	if !d.committed {
		return fmt.Errorf("mpi: datatype %s not committed", d.name)
	}
	return nil
}
