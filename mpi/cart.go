package mpi

import (
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// cartInfo stores the Cartesian topology attached to a communicator.
type cartInfo struct {
	dims    []int
	periods []bool
	coords  []int // this process's coordinates
}

// CartCreate attaches a Cartesian topology over c (reorder is
// accepted but ignored, as permitted by the standard). All members
// must call; members beyond the product of dims receive nil.
func (p *Proc) CartCreate(c *Comm, dims []int, periods []bool, reorder bool) (*Comm, error) {
	if err := c.checkUsable(); err != nil {
		return nil, err
	}
	total := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("mpi: CartCreate with non-positive dimension")
		}
		total *= d
	}
	if total > len(c.group) {
		return nil, fmt.Errorf("mpi: Cartesian grid of %d exceeds communicator size %d", total, len(c.group))
	}
	perInts := make([]int, len(periods))
	for i, b := range periods {
		if b {
			perInts[i] = 1
		}
	}
	var nc *Comm
	args := []Value{vComm(c), vInt(len(dims)), vIntArray(dims), vIntArray(perInts),
		vInt(int(b2i(reorder))), vComm(nil)}
	p.icall(mpispec.FCartCreate, args, func() {
		res, maxClk := p.commRendezvous(c, nil, func(m map[int]any) any {
			return p.world.ctxSeq.Add(1)
		})
		p.raiseClock(maxClk + costLatency*int64(log2ceil(len(c.group))))
		if c.myRank >= total {
			return // not part of the grid
		}
		group := make([]int, total)
		copy(group, c.group[:total])
		nc = p.newComm(commSpec{ctx: res.(int64), group: group, name: c.name + "/cart"})
		ds := make([]int, len(dims))
		copy(ds, dims)
		ps := make([]bool, len(periods))
		copy(ps, periods)
		nc.cart = &cartInfo{dims: ds, periods: ps, coords: rankToCoords(nc.myRank, ds)}
		args[5] = vComm(nc)
	})
	return nc, nil
}

// rankToCoords converts a row-major rank into grid coordinates.
func rankToCoords(rank int, dims []int) []int {
	coords := make([]int, len(dims))
	for i := len(dims) - 1; i >= 0; i-- {
		coords[i] = rank % dims[i]
		rank /= dims[i]
	}
	return coords
}

// coordsToRank converts grid coordinates into a row-major rank,
// applying periodicity; returns ProcNull for out-of-range coordinates
// on non-periodic dimensions.
func coordsToRank(coords, dims []int, periods []bool) int {
	rank := 0
	for i, c := range coords {
		if c < 0 || c >= dims[i] {
			if i < len(periods) && periods[i] {
				c = ((c % dims[i]) + dims[i]) % dims[i]
			} else {
				return ProcNull
			}
		}
		rank = rank*dims[i] + c
	}
	return rank
}

func (c *Comm) cartOrErr() (*cartInfo, error) {
	if err := c.checkUsable(); err != nil {
		return nil, err
	}
	if c.cart == nil {
		return nil, fmt.Errorf("mpi: communicator %q has no Cartesian topology", c.name)
	}
	return c.cart, nil
}

// CartCoords returns the coordinates of a rank in the grid.
func (p *Proc) CartCoords(c *Comm, rank int) ([]int, error) {
	ci, err := c.cartOrErr()
	if err != nil {
		return nil, err
	}
	coords := rankToCoords(rank, ci.dims)
	args := []Value{vComm(c), vRank(rank), vInt(len(ci.dims)), vIntArray(coords)}
	p.icall(mpispec.FCartCoords, args, func() {})
	return coords, nil
}

// CartRank returns the rank at the given coordinates.
func (p *Proc) CartRank(c *Comm, coords []int) (int, error) {
	ci, err := c.cartOrErr()
	if err != nil {
		return ProcNull, err
	}
	var r int
	args := []Value{vComm(c), vIntArray(coords), vRank(0)}
	p.icall(mpispec.FCartRank, args, func() {
		r = coordsToRank(coords, ci.dims, ci.periods)
		args[2].I = int64(r)
	})
	return r, nil
}

// CartShift returns the source and destination ranks for a shift of
// disp along dimension direction.
func (p *Proc) CartShift(c *Comm, direction, disp int) (src, dest int, err error) {
	ci, e := c.cartOrErr()
	if e != nil {
		return ProcNull, ProcNull, e
	}
	if direction < 0 || direction >= len(ci.dims) {
		return ProcNull, ProcNull, fmt.Errorf("mpi: CartShift direction %d out of range", direction)
	}
	args := []Value{vComm(c), vInt(direction), vInt(disp), vRank(0), vRank(0)}
	p.icall(mpispec.FCartShift, args, func() {
		up := make([]int, len(ci.coords))
		copy(up, ci.coords)
		up[direction] += disp
		dest = coordsToRank(up, ci.dims, ci.periods)
		down := make([]int, len(ci.coords))
		copy(down, ci.coords)
		down[direction] -= disp
		src = coordsToRank(down, ci.dims, ci.periods)
		args[3].I = int64(src)
		args[4].I = int64(dest)
	})
	return src, dest, nil
}

// CartGet returns the grid dimensions, periodicity and this process's
// coordinates.
func (p *Proc) CartGet(c *Comm) (dims []int, periods []bool, coords []int, err error) {
	ci, e := c.cartOrErr()
	if e != nil {
		return nil, nil, nil, e
	}
	perInts := make([]int, len(ci.periods))
	for i, b := range ci.periods {
		if b {
			perInts[i] = 1
		}
	}
	args := []Value{vComm(c), vInt(len(ci.dims)), vIntArray(ci.dims), vIntArray(perInts), vIntArray(ci.coords)}
	p.icall(mpispec.FCartGet, args, func() {})
	return append([]int(nil), ci.dims...), append([]bool(nil), ci.periods...), append([]int(nil), ci.coords...), nil
}

// CartdimGet returns the number of grid dimensions.
func (p *Proc) CartdimGet(c *Comm) (int, error) {
	ci, err := c.cartOrErr()
	if err != nil {
		return 0, err
	}
	var n int
	args := []Value{vComm(c), vInt(0)}
	p.icall(mpispec.FCartdimGet, args, func() {
		n = len(ci.dims)
		args[1].I = int64(n)
	})
	return n, nil
}

// CartSub splits the grid into sub-grids keeping the dimensions where
// remain[i] is true (like MPI_Cart_sub).
func (p *Proc) CartSub(c *Comm, remain []bool) (*Comm, error) {
	ci, err := c.cartOrErr()
	if err != nil {
		return nil, err
	}
	if len(remain) != len(ci.dims) {
		return nil, fmt.Errorf("mpi: CartSub remain length mismatch")
	}
	remInts := make([]int, len(remain))
	for i, b := range remain {
		if b {
			remInts[i] = 1
		}
	}
	var nc *Comm
	args := []Value{vComm(c), vIntArray(remInts), vComm(nil)}
	p.icall(mpispec.FCartSub, args, func() {
		// Color = coordinates along dropped dims; key = row-major rank
		// within kept dims.
		color, key := 0, 0
		for i := range ci.dims {
			if remain[i] {
				key = key*ci.dims[i] + ci.coords[i]
			} else {
				color = color*ci.dims[i] + ci.coords[i]
			}
		}
		nc = p.splitBody(c, color, key, c.name+"/sub")
		if nc != nil {
			var dims []int
			var periods []bool
			var coords []int
			for i := range ci.dims {
				if remain[i] {
					dims = append(dims, ci.dims[i])
					periods = append(periods, ci.periods[i])
					coords = append(coords, ci.coords[i])
				}
			}
			nc.cart = &cartInfo{dims: dims, periods: periods, coords: coords}
		}
		args[2] = vComm(nc)
	})
	return nc, nil
}

// DimsCreate factors nnodes into ndims balanced dimensions; nonzero
// entries of dims are kept fixed (as in MPI_Dims_create).
func (p *Proc) DimsCreate(nnodes, ndims int, dims []int) error {
	if len(dims) < ndims {
		return fmt.Errorf("mpi: DimsCreate dims slice too short")
	}
	args := []Value{vInt(nnodes), vInt(ndims), vIntArray(dims)}
	var err error
	p.icall(mpispec.FDimsCreate, args, func() {
		err = dimsCreate(nnodes, ndims, dims)
		args[2] = vIntArray(dims)
	})
	return err
}

// dimsCreate is the pure factoring logic (exported for tests via
// DimsCreate).
func dimsCreate(nnodes, ndims int, dims []int) error {
	rem := nnodes
	free := 0
	for i := 0; i < ndims; i++ {
		if dims[i] > 0 {
			if rem%dims[i] != 0 {
				return fmt.Errorf("mpi: DimsCreate cannot satisfy fixed dims")
			}
			rem /= dims[i]
		} else {
			free++
		}
	}
	if free == 0 {
		if rem != 1 {
			return fmt.Errorf("mpi: DimsCreate over-constrained")
		}
		return nil
	}
	// Greedy balanced factorization: repeatedly assign the largest
	// prime factor to the smallest current dimension.
	factors := primeFactors(rem)
	vals := make([]int, free)
	for i := range vals {
		vals[i] = 1
	}
	for i := len(factors) - 1; i >= 0; i-- {
		// smallest dimension gets the next (largest-first) factor
		minIdx := 0
		for j := 1; j < free; j++ {
			if vals[j] < vals[minIdx] {
				minIdx = j
			}
		}
		vals[minIdx] *= factors[i]
	}
	// MPI requires non-increasing order of the computed dims.
	sortDesc(vals)
	vi := 0
	for i := 0; i < ndims; i++ {
		if dims[i] == 0 {
			dims[i] = vals[vi]
			vi++
		}
	}
	return nil
}

func primeFactors(n int) []int {
	var f []int
	for d := 2; d*d <= n; d++ {
		for n%d == 0 {
			f = append(f, d)
			n /= d
		}
	}
	if n > 1 {
		f = append(f, n)
	}
	return f
}

func sortDesc(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
