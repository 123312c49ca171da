package replay_test

import (
	"testing"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/replay"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/mpi"
)

// recorder keeps the call records of the calls a replay makes.
type recorder struct{ calls []mpispec.CallRecord }

func (x *recorder) Pre(*mpispec.CallRecord)        {}
func (x *recorder) Post(rec *mpispec.CallRecord)   { x.calls = append(x.calls, *rec) }
func (x *recorder) MemAlloc(uint64, uint64, int32) {}
func (x *recorder) MemFree(uint64)                 {}

// TestPredefinedObjectsRoundTrip encodes a call that names each
// predefined datatype, op and communicator, decodes it, and replays it
// through replay.Interp: the replayed call must name the same handle,
// and Interp.Datatype and Interp.Comm must give back the same object.
// The encoder and the simulator read one layout, mpispec's, so no
// predefined object can land on another's id.
func TestPredefinedObjectsRoundTrip(t *testing.T) {
	comm := func(h int64) mpispec.Value { return mpispec.Value{Kind: mpispec.KComm, I: h, Arr: []int64{0}} }
	world := comm(mpispec.CommWorldHandle)
	ptr := mpispec.Value{Kind: mpispec.KPtr}
	count := mpispec.Value{Kind: mpispec.KInt}
	var recs []mpispec.CallRecord
	for id := int64(0); mpi.PredefinedType(id) != nil; id++ {
		dt := mpispec.Value{Kind: mpispec.KDatatype, I: mpi.PredefinedType(id).Handle()}
		recs = append(recs, mpispec.CallRecord{Func: mpispec.FTypeSize, Args: []mpispec.Value{dt, count}})
	}
	for id := int64(0); mpi.PredefinedOp(id) != nil; id++ {
		op := mpispec.Value{Kind: mpispec.KOp, I: mpi.PredefinedOp(id).Handle()}
		intType := mpispec.Value{Kind: mpispec.KDatatype, I: mpi.Int.Handle()}
		recs = append(recs, mpispec.CallRecord{Func: mpispec.FAllreduce, Args: []mpispec.Value{ptr, ptr, count, intType, op, world}})
	}
	for _, h := range []int64{mpispec.CommWorldHandle, mpispec.CommSelfHandle} {
		recs = append(recs, mpispec.CallRecord{Func: mpispec.FCommRank,
			Args: []mpispec.Value{comm(h), {Kind: mpispec.KRank}}})
	}
	if len(recs) != 15+8+2 {
		t.Fatalf("%d records, want one per predefined datatype (15), op (8) and communicator (2)", len(recs))
	}

	enc := sig.NewEncoder(0, nil)
	calls := make([]core.DecodedCall, len(recs))
	for i := range recs {
		d, err := sig.Decode(enc.Encode(&recs[i]))
		if err != nil {
			t.Fatalf("%s: %v", recs[i].Func.Name(), err)
		}
		calls[i] = core.NewCall(d, 0)
	}
	replayed := &recorder{}
	err := mpi.RunOpt(1, mpi.Options{Interceptors: []mpispec.Interceptor{replayed}}, func(p *mpi.Proc) {
		in := replay.NewInterp(p)
		for i, c := range calls {
			if err := in.Exec(c); err != nil {
				t.Errorf("%s: %v", c.Decoded, err)
				continue
			}
			switch want := recs[i].Args[0].I; c.Func {
			case mpispec.FTypeSize:
				if dt, err := in.Datatype(c.Args[0].I); err != nil || dt.Handle() != want {
					t.Errorf("%s: Interp.Datatype gives %v, %v; want handle %d", c.Decoded, dt, err, want)
				}
			case mpispec.FCommRank:
				if cm, err := in.Comm(c.Args[0].I); err != nil || cm.Handle() != want {
					t.Errorf("%s: Interp.Comm gives %v, %v; want handle %d", c.Decoded, cm, err, want)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed.calls) != len(recs) {
		t.Fatalf("replay made %d calls, want %d", len(replayed.calls), len(recs))
	}
	for i, rec := range recs {
		got := replayed.calls[i]
		for k, a := range rec.Args {
			switch a.Kind {
			case mpispec.KDatatype, mpispec.KOp, mpispec.KComm:
				if got.Func != rec.Func || got.Args[k].I != a.I {
					t.Errorf("%s argument %d: handle %d replays as %s's %d", rec.Func.Name(), k, a.I, got.Func.Name(), got.Args[k].I)
				}
			}
		}
	}
}
