package mpi

import (
	"fmt"
	"runtime"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

func yield() { runtime.Gosched() }

// Init marks the process initialized (traced like MPI_Init).
func (p *Proc) Init() error {
	if p.initialized {
		return fmt.Errorf("mpi: rank %d double MPI_Init", p.rank)
	}
	p.icall(mpispec.FInit, nil, func() {
		p.initialized = true
	})
	return nil
}

// Finalize marks the process finalized.
func (p *Proc) Finalize() error {
	if p.finalized {
		return fmt.Errorf("mpi: rank %d double MPI_Finalize", p.rank)
	}
	p.icall(mpispec.FFinalize, nil, func() {
		p.finalized = true
	})
	return nil
}

// Initialized reports whether Init has been called.
func (p *Proc) Initialized() bool {
	args := []Value{vInt(0)}
	var flag bool
	p.icall(mpispec.FInitialized, args, func() {
		flag = p.initialized
		args[0].I = b2i(flag)
	})
	return flag
}

// Finalized reports whether Finalize has been called.
func (p *Proc) Finalized() bool {
	args := []Value{vInt(0)}
	var flag bool
	p.icall(mpispec.FFinalized, args, func() {
		flag = p.finalized
		args[0].I = b2i(flag)
	})
	return flag
}

// Abort terminates the whole simulated job, as MPI_Abort does: the
// world is revoked so every other rank unblocks promptly with an
// ErrRevoked-wrapped error, and this rank unwinds with an AbortError
// (Run returns both inside a *RunError).
func (p *Proc) Abort(c *Comm, errorcode int) {
	args := []Value{vComm(c), vInt(errorcode)}
	p.icall(mpispec.FAbort, args, func() {})
	err := &AbortError{Rank: p.rank, Code: errorcode, Comm: c.name}
	p.world.revoke(err)
	panic(err)
}

// GetProcessorName returns a synthetic host name for the rank.
func (p *Proc) GetProcessorName() string {
	name := fmt.Sprintf("node%04d", p.rank/16) // 16 ranks per simulated node
	args := []Value{vString(""), vInt(0)}
	p.icall(mpispec.FGetProcessorName, args, func() {
		args[0].S = name
		args[1].I = int64(len(name))
	})
	return name
}

// CommSize returns the size of the communicator (traced).
func (p *Proc) CommSize(c *Comm) int {
	args := []Value{vComm(c), vInt(0)}
	var n int
	p.icall(mpispec.FCommSize, args, func() {
		n = len(c.group)
		args[1].I = int64(n)
	})
	return n
}

// CommRank returns the calling process's rank in the communicator.
func (p *Proc) CommRank(c *Comm) int {
	args := []Value{vComm(c), vRank(0)}
	var r int
	p.icall(mpispec.FCommRank, args, func() {
		r = c.myRank
		args[1].I = int64(r)
	})
	return r
}

// --- Persistent requests ----------------------------------------------------

// SendInit creates a persistent standard-mode send request.
func (p *Proc) SendInit(buf Ptr, count int, dt *Datatype, dest, tag int, c *Comm) (*Request, error) {
	return p.startRequest(mpispec.FSendInit, msg{buf, count, dt, dest, tag, c, false}, true, (*Proc).startSend)
}

// BsendInit creates a persistent buffered send request.
func (p *Proc) BsendInit(buf Ptr, count int, dt *Datatype, dest, tag int, c *Comm) (*Request, error) {
	return p.startRequest(mpispec.FBsendInit, msg{buf, count, dt, dest, tag, c, false}, true, (*Proc).startSend)
}

// SsendInit creates a persistent synchronous send request.
func (p *Proc) SsendInit(buf Ptr, count int, dt *Datatype, dest, tag int, c *Comm) (*Request, error) {
	return p.startRequest(mpispec.FSsendInit, msg{buf, count, dt, dest, tag, c, true}, true, (*Proc).startSend)
}

// RsendInit creates a persistent ready send request.
func (p *Proc) RsendInit(buf Ptr, count int, dt *Datatype, dest, tag int, c *Comm) (*Request, error) {
	return p.startRequest(mpispec.FRsendInit, msg{buf, count, dt, dest, tag, c, false}, true, (*Proc).startSend)
}

// RecvInit creates a persistent receive request.
func (p *Proc) RecvInit(buf Ptr, count int, dt *Datatype, source, tag int, c *Comm) (*Request, error) {
	return p.startRequest(mpispec.FRecvInit, msg{buf, count, dt, source, tag, c, false}, true, (*Proc).startRecv)
}

// Start activates a persistent request.
func (p *Proc) Start(r *Request) error {
	if r == nil || !r.persistent || r.restart == nil {
		return fmt.Errorf("mpi: Start on non-persistent request")
	}
	args := []Value{vReq(r)}
	p.icall(mpispec.FStart, args, func() {
		p.mu.Lock()
		r.active = true
		p.mu.Unlock()
		r.restart(r)
	})
	return nil
}

// Startall activates a set of persistent requests.
func (p *Proc) Startall(rs []*Request) error {
	for _, r := range rs {
		if r == nil || !r.persistent || r.restart == nil {
			return fmt.Errorf("mpi: Startall on non-persistent request")
		}
	}
	args := []Value{vInt(len(rs)), vReqArray(rs)}
	p.icall(mpispec.FStartall, args, func() {
		for _, r := range rs {
			p.mu.Lock()
			r.active = true
			p.mu.Unlock()
			r.restart(r)
		}
	})
	return nil
}

// GetCount returns the number of dt elements described by a status.
func (p *Proc) GetCount(st Status, dt *Datatype) int {
	args := []Value{{Kind: mpispec.KStatus, Arr: []int64{int64(st.Source), int64(st.Tag)}}, vType(dt), vInt(0)}
	var n int
	p.icall(mpispec.FGetCount, args, func() {
		if dt.size > 0 {
			n = st.Count / dt.size
		}
		args[2].I = int64(n)
	})
	return n
}

// GetElements returns the number of primitive elements in a status.
func (p *Proc) GetElements(st Status, dt *Datatype) int {
	args := []Value{{Kind: mpispec.KStatus, Arr: []int64{int64(st.Source), int64(st.Tag)}}, vType(dt), vInt(0)}
	var n int
	p.icall(mpispec.FGetElements, args, func() {
		if dt.lane > 0 {
			n = st.Count / dt.lane
		}
		args[2].I = int64(n)
	})
	return n
}
