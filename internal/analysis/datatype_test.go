package analysis_test

import (
	"strings"
	"testing"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/mpi"
)

// typedRanks is the world size the typed programs are written for.
const typedRanks = 4

// tee is one rank's tracer that also keeps every call record it sees.
type tee struct {
	*pilgrim.Tracer
	calls []mpispec.CallRecord
}

func (x *tee) Post(rec *mpispec.CallRecord) {
	x.Tracer.Post(rec)
	x.calls = append(x.calls, *rec)
}

// typedRun runs body on typedRanks ranks under tracers that keep every
// call record. body's ring sends count elements of dt to the right
// neighbour and receives as many from the left; sizes keeps, per rank,
// the size the simulator gives each datatype handle ring was passed.
func typedRun(t *testing.T, body func(p *mpi.Proc, ring func(dt *mpi.Datatype, count int))) (*pilgrim.TraceFile, []*tee, []map[int64]int) {
	t.Helper()
	tees := make([]*tee, typedRanks)
	tracers := make([]*pilgrim.Tracer, typedRanks)
	ics := make([]mpispec.Interceptor, typedRanks)
	sizes := make([]map[int64]int, typedRanks)
	for i := range ics {
		tracers[i] = pilgrim.NewTracer(i, nil, pilgrim.Options{})
		tees[i] = &tee{Tracer: tracers[i]}
		ics[i] = tees[i]
		sizes[i] = map[int64]int{}
	}
	err := mpi.RunOpt(typedRanks, mpi.Options{Timeout: 60 * time.Second, Interceptors: ics}, func(p *mpi.Proc) {
		pilgrim.BindOOB(tracers[p.Rank()], p)
		must(p.Init())
		w, rank := p.World(), p.Rank()
		right, left := (rank+1)%typedRanks, (rank-1+typedRanks)%typedRanks
		send, recv := p.Alloc(1024), p.Alloc(1024)
		tag := 0
		body(p, func(dt *mpi.Datatype, count int) {
			sizes[rank][dt.Handle()] = dt.Size()
			tag++
			r, err := p.Isend(send.Ptr(0), count, dt, right, tag, w)
			must(err)
			must(p.Recv(recv.Ptr(0), count, dt, left, tag, w, nil))
			must(p.Wait(r, nil))
		})
		send.Free()
		recv.Free()
		must(p.Finalize())
	})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := pilgrim.Finalize(tracers)
	return f, tees, sizes
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// derivedTypes sends real messages with every datatype constructor the
// simulator has, then frees one type and creates another, which takes
// the freed one's symbolic id.
func derivedTypes(p *mpi.Proc, ring func(dt *mpi.Datatype, count int)) {
	made := func(dt *mpi.Datatype, err error) *mpi.Datatype {
		must(err)
		must(p.TypeCommit(dt))
		return dt
	}
	cont := made(p.TypeContiguous(3, mpi.Int))
	vec := made(p.TypeVector(2, 2, 3, mpi.Double))
	idx := made(p.TypeIndexed([]int{1, 2}, []int{0, 3}, mpi.Int))
	st := made(p.TypeCreateStruct([]int{1, 2}, []int{0, 8}, []*mpi.Datatype{mpi.Int, mpi.Double}))
	dup := made(p.TypeDup(vec))
	ring(mpi.Double, 3)
	for _, dt := range []*mpi.Datatype{cont, vec, idx, st, dup} {
		ring(dt, 2)
	}
	must(p.TypeFree(cont))
	ring(made(p.TypeContiguous(5, mpi.Short)), 2)
}

// structOfVector sends a struct whose member is a derived type. The
// trace keeps a struct member's raw handle, which names a derived type
// on no other run, so analysis cannot size it.
func structOfVector(p *mpi.Proc, ring func(dt *mpi.Datatype, count int)) {
	vec, err := p.TypeVector(2, 1, 2, mpi.Double)
	must(err)
	st, err := p.TypeCreateStruct([]int{1, 1}, []int{0, 8}, []*mpi.Datatype{mpi.Double, vec})
	must(err)
	must(p.TypeCommit(st))
	ring(st, 1)
}

// TestDerivedTypePayloadBytes checks every send's Bytes and every
// receive's Capacity against count × the simulator's Datatype.Size()
// for the datatype the recorded call names. A struct with a derived
// member must fail the analysis at the call that creates it rather
// than count its bytes wrong.
func TestDerivedTypePayloadBytes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		body    func(p *mpi.Proc, ring func(dt *mpi.Datatype, count int))
		wantErr string
	}{
		{"constructors", derivedTypes, ""},
		{"structOfVector", structOfVector, "rank 0 call 2 (MPI_Type_create_struct)"},
	} {
		t.Run(tc.name, func(t *testing.T) { checkPayloadBytes(t, tc.body, tc.wantErr) })
	}
}

func checkPayloadBytes(t *testing.T, body func(p *mpi.Proc, ring func(dt *mpi.Datatype, count int)), wantErr string) {
	f, tees, sizes := typedRun(t, body)
	an, err := pilgrim.Analyze(f)
	switch {
	case wantErr != "":
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("error %v, want one naming %s", err, wantErr)
		}
		return
	case err != nil:
		t.Fatal(err)
	}
	if len(an.UnmatchedSends)+len(an.UnmatchedRecvs) > 0 {
		t.Errorf("%d sends and %d receives unmatched", len(an.UnmatchedSends), len(an.UnmatchedRecvs))
	}
	type side struct {
		rank, index int
		send        bool
	}
	want := map[side]int64{}
	for rank, x := range tees {
		for i, rec := range x.calls {
			m := mpispec.MessageOf(rec.Func)
			if m == nil {
				continue
			}
			for _, h := range []*mpispec.Half{m.Send, m.Recv} {
				if h != nil {
					want[side{rank, i, h == m.Send}] = rec.Args[h.Count].I * int64(sizes[rank][rec.Args[h.Datatype].I])
				}
			}
		}
	}
	if got := len(an.Sends) + len(an.Recvs); got != len(want) {
		t.Fatalf("analysis posted %d sends and receives, the run %d", got, len(want))
	}
	// bytesByID collects rank 0's send sizes by symbolic datatype id.
	bytesByID := map[int64]map[int64]bool{}
	for _, s := range an.Sends {
		if w := want[side{s.Rank, s.Index, true}]; s.Bytes != w {
			t.Errorf("rank %d call %d sends %d bytes, the simulator moved %d", s.Rank, s.Index, s.Bytes, w)
		}
		if s.Rank == 0 {
			id := an.Events[0][s.Index].Args[mpispec.MessageOf(s.Func).Send.Datatype].I
			if bytesByID[id] == nil {
				bytesByID[id] = map[int64]bool{}
			}
			bytesByID[id][s.Bytes] = true
		}
	}
	for _, r := range an.Recvs {
		if w := want[side{r.Rank, r.Index, false}]; r.Capacity != w {
			t.Errorf("rank %d call %d receives into %d bytes, the simulator's capacity is %d", r.Rank, r.Index, r.Capacity, w)
		}
	}
	reused := false
	for _, sizes := range bytesByID {
		reused = reused || len(sizes) > 1
	}
	if !reused {
		t.Errorf("no symbolic datatype id names two types of different sizes: %v", bytesByID)
	}
}
