package analysis_test

import (
	"testing"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/mpi"
)

// TestCompletionEmptyTestsome checks that a Testsome which completed
// nothing leaves its requests pending: the receive completes at the
// Waitsome after it. (An empty indices array decodes as nil, which
// once read as "every slot", like a Waitall's.)
func TestCompletionEmptyTestsome(t *testing.T) {
	file, _, err := pilgrim.Run(2, pilgrim.Options{}, func(p *mpi.Proc) {
		must := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		must(p.Init())
		w, buf := p.World(), p.Alloc(64)
		if p.Rank() == 0 {
			must(p.Recv(buf.Ptr(0), 1, mpi.Int, 1, 2, w, nil))
			must(p.Send(buf.Ptr(8), 1, mpi.Int, 1, 1, w))
		} else {
			r, err := p.Irecv(buf.Ptr(8), 1, mpi.Int, 0, 1, w)
			must(err)
			if idx, _ := p.Testsome([]*mpi.Request{r}, nil); len(idx) != 0 {
				panic("Testsome completed a receive nobody sent")
			}
			must(p.Send(buf.Ptr(0), 1, mpi.Int, 0, 2, w))
			if idx, _ := p.Waitsome([]*mpi.Request{r}, nil); len(idx) != 1 {
				panic("Waitsome completed nothing")
			}
		}
		must(p.Finalize())
	})
	if err != nil {
		t.Fatal(err)
	}
	an, err := pilgrim.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	calls, err := pilgrim.DecodeRank(file, 1)
	if err != nil {
		t.Fatal(err)
	}
	waitsome := -1
	for i, c := range calls {
		if c.Func == mpispec.FWaitsome {
			waitsome = i
		}
	}
	if len(an.Matches) != 2 {
		t.Fatalf("%d matches, want 2", len(an.Matches))
	}
	for _, m := range an.Matches {
		if m.Recv.Rank == 1 && m.Recv.DoneIndex != waitsome {
			t.Errorf("the receive completed at call %d, want the Waitsome at %d", m.Recv.DoneIndex, waitsome)
		}
	}
}
