package sig

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// TestOnePassKeyIsLegalForEveryFunction pins what lets EncodeTo take
// the §3.4.3 pool key from the signature it is building: a
// request-creating function has exactly one request-kind parameter, an
// output, and creates no other kind of object — so leaving that one
// slot out is "the arguments with requests skipped", and nothing
// assignCreatedObjects does for such a call changes an id it encodes.
// It also checks the other slots of the table against the parameter
// list they were read from.
func TestOnePassKeyIsLegalForEveryFunction(t *testing.T) {
	requestCreating := 0
	for f := mpispec.FuncID(0); f < mpispec.NumFuncs; f++ {
		spec, ff := &mpispec.Spec[f], &facts[f]
		if len(spec.Params) > 16 {
			t.Fatalf("%s has %d parameters, funcFacts.peers holds 16", spec.Name, len(spec.Params))
		}
		var requests, outRequests []int
		for i, p := range spec.Params {
			if p.Kind == mpispec.KRequest || p.Kind == mpispec.KReqArray {
				requests = append(requests, i)
				if p.Dir == mpispec.Out {
					outRequests = append(outRequests, i)
				}
			}
			peer := ff.peers&(1<<i) != 0
			named := p.Name == "dest" || p.Name == "source" || p.Name == "rank_source" || p.Name == "rank_dest"
			if peer != (p.Kind == mpispec.KRank && named) {
				t.Errorf("%s parameter %d (%s, %v): peer bit %v", spec.Name, i, p.Name, p.Kind, peer)
			}
		}
		if len(outRequests) == 0 {
			if ff.newRequest != -1 || ff.persistent {
				t.Errorf("%s creates no request, table says slot %d persistent %v", spec.Name, ff.newRequest, ff.persistent)
			}
		} else {
			requestCreating++
			if len(requests) != 1 || int(ff.newRequest) != requests[0] ||
				spec.Params[ff.newRequest].Kind != mpispec.KRequest {
				t.Errorf("%s: request-kind parameters %v, table names slot %d; want exactly one KRequest",
					spec.Name, requests, ff.newRequest)
			}
			if o := ff.object; o != nil && f != mpispec.FCommIdup {
				t.Errorf("%s creates a request and, per the table, another object: %+v", spec.Name, *o)
			}
		}
		if ff.object != mpispec.ObjectOf(f) {
			t.Errorf("%s: object %v, mpispec.ObjectOf says %v", spec.Name, ff.object, mpispec.ObjectOf(f))
		}
		if c := ff.comm; c >= 0 {
			if p := spec.Params[c]; p.Kind != mpispec.KComm || p.Dir == mpispec.Out {
				t.Errorf("%s: comm slot %d is %v %v", spec.Name, c, p.Kind, p.Dir)
			}
			for _, p := range spec.Params[:c] {
				if p.Kind == mpispec.KComm {
					t.Errorf("%s: comm slot %d is not the first communicator", spec.Name, c)
				}
			}
		}
	}
	if requestCreating != 19 {
		t.Errorf("%d request-creating functions, want 19", requestCreating)
	}
	for f := mpispec.FuncID(0); f < mpispec.NumFuncs; f++ {
		switch f {
		case mpispec.FSendInit, mpispec.FBsendInit, mpispec.FSsendInit, mpispec.FRsendInit, mpispec.FRecvInit:
			if !facts[f].persistent {
				t.Errorf("%s is not marked persistent", f.Name())
			}
		default:
			if facts[f].persistent {
				t.Errorf("%s is marked persistent", f.Name())
			}
		}
	}
	// The facts the hand-kept switches used to state, spot-checked.
	for f, slot := range map[mpispec.FuncID]int8{mpispec.FIsend: 6, mpispec.FRecvInit: 6, mpispec.FIbarrier: 1,
		mpispec.FCommIdup: 2, mpispec.FIbcast: 5, mpispec.FIgather: 8, mpispec.FIalltoall: 7, mpispec.FIallreduce: 6} {
		if facts[f].newRequest != slot {
			t.Errorf("%s: request slot %d, want %d", f.Name(), facts[f].newRequest, slot)
		}
	}
	if facts[mpispec.FIsend].comm != 5 {
		t.Error("MPI_Isend's comm slot differs from its parameter list")
	}
}

// TestInsertVarint covers the splice with bytes after the slot, which
// no function of mpispec.Spec exercises (MPI puts the request last):
// the id lands where a straight encoding would have written it.
func TestInsertVarint(t *testing.T) {
	for _, id := range []int64{-2, -1, 0, 5, 63, 64, 1 << 20, -1 << 40, 1<<63 - 1} {
		for _, tail := range []int{0, 1, 9, 40} {
			head := []byte{1, 2, 3}
			rest := bytes.Repeat([]byte{0xAB}, tail)
			want := append(binary.AppendVarint(append([]byte(nil), head...), id), rest...)
			buf := make([]byte, 0, 8) // small: the insert has to grow it
			buf = append(append(buf, head...), rest...)
			if got := insertVarint(buf, len(head), id); !bytes.Equal(got, want) {
				t.Fatalf("insertVarint(id %d, %d tail bytes) = %x, want %x", id, tail, got, want)
			}
		}
	}
}

// TestMemAllocTwiceKeepsOneID: an address registered twice without an
// intercepted free in between replaces its segment, and the replaced
// segment's id must go back to the pool — it used to be lost for the
// rest of the run.
func TestMemAllocTwiceKeepsOneID(t *testing.T) {
	e := NewEncoder(0, nil)
	e.MemAlloc(0x1000, 64, 0)
	e.MemAlloc(0x1000, 128, 0) // realloc in place
	if id := segID(t, e, 0x1000+100); id != 0 {
		t.Fatalf("replaced segment has id %d, want to keep 0", id)
	}
	e.MemFree(0x1000)
	e.MemAlloc(0x2000, 64, 0)
	e.MemAlloc(0x3000, 64, 0)
	if a, b := segID(t, e, 0x2000), segID(t, e, 0x3000); a != 0 || b != 1 {
		t.Fatalf("new segments got ids %d and %d, want 0 and 1", a, b)
	}
	if e.LiveSegments() != 2 || e.memPool.InUse() != 2 {
		t.Fatalf("%d live segments hold %d ids", e.LiveSegments(), e.memPool.InUse())
	}
}

func segID(t *testing.T, e *Encoder, addr uint64) int64 {
	t.Helper()
	d, err := Decode(e.Encode(sendRec(0, addr, 1, 0)))
	if err != nil || d.Args[0].Sel != ptrHeap {
		t.Fatalf("pointer %#x: %v %+v", addr, err, d.Args)
	}
	return d.Args[0].I
}
