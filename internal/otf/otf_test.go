package otf_test

import (
	"bytes"
	"strings"
	"testing"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/otf"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/workloads"
)

func TestConvertParseRoundtrip(t *testing.T) {
	body := workloads.Stencil2D(workloads.StencilConfig{Iters: 5})
	file, stats, err := pilgrim.Run(4, pilgrim.Options{}, body)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := otf.Convert(file, &buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "HDR\tpilgrim-otf\t1\t4") {
		t.Fatalf("bad header: %q", text[:40])
	}
	if !strings.Contains(text, "DEF\tFUNC") {
		t.Fatal("missing function definitions")
	}
	ranks, events, err := otf.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ranks != 4 {
		t.Fatalf("parsed %d ranks", ranks)
	}
	if int64(len(events)) != stats.TotalCalls {
		t.Fatalf("parsed %d events, traced %d calls", len(events), stats.TotalCalls)
	}
	// Events must be ordered per rank and reference known functions.
	lastSeq := map[int]int{}
	for _, ev := range events {
		if prev, ok := lastSeq[ev.Rank]; ok && ev.Seq != prev+1 {
			t.Fatalf("rank %d events out of order: %d after %d", ev.Rank, ev.Seq, prev)
		}
		lastSeq[ev.Rank] = ev.Seq
		if ev.Text == "" || !strings.HasPrefix(ev.Text, "MPI_") {
			t.Fatalf("bad event text %q", ev.Text)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	const hdr = "HDR\tpilgrim-otf\t1\t4\t0\n"
	for name, text := range map[string]string{
		"unknown record":          "XXX\tnope\n",
		"wrong format name":       "HDR\twrong-format\t1\t4\t0\n",
		"negative rank count":     "HDR\tpilgrim-otf\t1\t-1\t0\n",
		"short event":             "EVT\t0\t0\n",
		"rank not a number":       hdr + "EVT\tx\t0\t0\t0\t0\tMPI_Init()\n",
		"seq not a number":        hdr + "EVT\t0\t?\t0\t0\t0\tMPI_Init()\n",
		"tStart not a number":     hdr + "EVT\t0\t0\t1.5\t0\t0\tMPI_Init()\n",
		"tEnd not a number":       hdr + "EVT\t0\t0\t0\t\t0\tMPI_Init()\n",
		"func id not a number":    hdr + "EVT\t0\t0\t0\t0\tsend\tMPI_Init()\n",
		"func id past the last":   hdr + "EVT\t0\t0\t0\t0\t65535\tMPI_Init()\n",
		"negative func id":        hdr + "EVT\t0\t0\t0\t0\t-1\tMPI_Init()\n",
		"rank past the header's":  hdr + "EVT\t4\t0\t0\t0\t0\tMPI_Init()\n",
		"negative rank":           hdr + "EVT\t-1\t0\t0\t0\t0\tMPI_Init()\n",
		"event before the header": "EVT\t0\t0\t0\t0\t0\tMPI_Init()\n" + hdr,
	} {
		if _, _, err := otf.Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if ranks, evs, err := otf.Parse(strings.NewReader(hdr + "EVT\t3\t0\t5\t9\t0\tMPI_Init()\n")); err != nil || ranks != 4 || len(evs) != 1 {
		t.Errorf("a well-formed event: %d ranks, %d events, %v", ranks, len(evs), err)
	}
}

// TestConvertAggregatedTimeline: an aggregated trace's events carry the
// timeline its CST means make. Per rank, the first event starts at 0,
// each next one where the previous ended, and each lasts its CST
// entry's mean duration.
func TestConvertAggregatedTimeline(t *testing.T) {
	f, err := trace.Load("../../testdata/golden/cg_8x3.pilgrim")
	if err != nil {
		t.Fatal(err)
	}
	if f.TimingMode != trace.TimingAggregated {
		t.Fatalf("timing mode %d, want aggregated", f.TimingMode)
	}
	var buf bytes.Buffer
	if err := otf.Convert(f, &buf); err != nil {
		t.Fatal(err)
	}
	ranks, events, err := otf.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	terms := make([][]int32, ranks)
	for r := range terms {
		if terms[r], err = f.Terms(r); err != nil {
			t.Fatal(err)
		}
	}
	clock := make([]int64, ranks)
	timed := 0
	for _, ev := range events {
		want := f.CST.AvgDuration(terms[ev.Rank][ev.Seq])
		if ev.TStart != clock[ev.Rank] || ev.TEnd-ev.TStart != want {
			t.Fatalf("rank %d event %d at [%d, %d], want it to start at %d and last %d",
				ev.Rank, ev.Seq, ev.TStart, ev.TEnd, clock[ev.Rank], want)
		}
		clock[ev.Rank] = ev.TEnd
		if want > 0 {
			timed++
		}
	}
	if timed == 0 {
		t.Fatalf("none of %d events lasts any time", len(events))
	}
}
