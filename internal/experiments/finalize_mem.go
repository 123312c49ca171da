package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/spill"
)

// SyntheticSnapshots builds deterministic per-rank snapshots shaped
// like a stencil run without spinning up the simulator: every rank
// shares a common phase, falls into one of nine signature classes
// (the paper's 2-D stencil count), and a sparse subset of ranks adds
// rank-unique signatures so the global CST keeps growing with scale.
// Deterministic: the same procs always yields byte-identical
// snapshots, so finalize timings and identity checks are repeatable.
func SyntheticSnapshots(procs int) []*core.Snapshot {
	snaps := make([]*core.Snapshot, procs)
	for r := 0; r < procs; r++ {
		snaps[r] = SyntheticSnapshot(r)
	}
	return snaps
}

// SyntheticSnapshot builds rank r's snapshot alone, so bounded-memory
// experiments can generate → spill → free one rank at a time without
// ever materializing the full O(procs) snapshot set.
func SyntheticSnapshot(r int) *core.Snapshot {
	tbl := cst.New()
	g := sequitur.New()
	record := func(sig string, dur int64) {
		g.Append(tbl.Add([]byte(sig), dur))
	}
	// Common phase: identical on every rank (init + collectives).
	for i := 0; i < 256; i++ {
		record(fmt.Sprintf("shared/%d", i%16), int64(100+i))
	}
	// Class phase: nine neighbour-exchange classes with loop
	// structure Sequitur can fold.
	cls := r % 9
	for i := 0; i < 1024; i++ {
		record(fmt.Sprintf("class%d/%d", cls, i%48), int64(200+i%64))
	}
	// Unique tail: every 17th rank sees rank-specific signatures
	// (e.g. I/O on a subset), so merges keep discovering terminals.
	if r%17 == 0 {
		for i := 0; i < 64; i++ {
			record(fmt.Sprintf("rank%d/%d", r, i%8), int64(300+i))
		}
	}
	return &core.Snapshot{
		Rank:    r,
		Calls:   tbl.Calls(),
		Table:   tbl,
		Grammar: sequitur.Serialized(g.Serialize()),
	}
}

// The finalize_mem experiment measures what the streaming finalize is
// for: peak memory. At each rank count it finalizes the same synthetic
// snapshot population twice — once the classic way (materialize all P
// snapshots, finalize in memory) and once streamed (spill.FinalizeRanks
// generating each rank as its batch is fetched: frames to disk and
// snapshots into the walk in batches of half of MaxResidentSnapshots,
// the next batch generated while the walk takes in this one) — and
// records the peak live heap and peak process RSS of each phase,
// asserting the two traces are byte-identical. The in-memory peak grows O(P); the streamed peak
// grows O(K + log P) in resident tables and should stay sublinear in P
// (the acceptance bar: the largest point's streamed peak RSS under 4x
// the 2048-rank point's).

// memBatch is the resident-snapshot bound K used for every streamed
// run: small enough that the bound, not the rank count, dominates the
// resident set, and fixed so points are comparable across the sweep.
const memBatch = 64

// FinalizeMemPoint is one rank count's in-memory vs streamed peak
// comparison.
type FinalizeMemPoint struct {
	Procs int `json:"procs"`
	Batch int `json:"batch"` // MaxResidentSnapshots of the streamed run

	InMemPeakHeap    uint64 `json:"inmem_peak_heap_bytes"`
	InMemPeakRSS     uint64 `json:"inmem_peak_rss_bytes,omitempty"`
	StreamedPeakHeap uint64 `json:"streamed_peak_heap_bytes"`
	StreamedPeakRSS  uint64 `json:"streamed_peak_rss_bytes,omitempty"`

	// PeakRatio is streamed/in-memory peak heap: how much of the
	// in-memory footprint the streaming path still needs.
	PeakRatio float64 `json:"peak_ratio"`
	Identical bool    `json:"identical"` // streamed trace byte-identical to in-memory
	TraceB    int     `json:"trace_bytes"`
}

// FinalizeMemResult is the "finalize_mem" experiment
// (BENCH_finalize_mem.json).
type FinalizeMemResult struct {
	Points []FinalizeMemPoint `json:"points"`
}

// RunFinalizeMem sweeps rank counts, comparing in-memory and streamed
// finalize peak memory and verifying byte identity at every point.
func RunFinalizeMem(scale Scale) (*FinalizeMemResult, error) {
	var sweep []int
	switch scale {
	case Quick:
		sweep = []int{128, 512}
	case Standard:
		sweep = []int{512, 2048, 4096}
	default:
		sweep = []int{512, 2048, 4096, 8192, 16384}
	}
	dir, err := os.MkdirTemp("", "pilgrim-finalize-mem-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &FinalizeMemResult{}
	for _, procs := range sweep {
		pt, err := finalizeMemPoint(procs, filepath.Join(dir, strconv.Itoa(procs)))
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func finalizeMemPoint(procs int, dir string) (FinalizeMemPoint, error) {
	pt := FinalizeMemPoint{Procs: procs, Batch: memBatch}

	// Streamed phase first: peak RSS comes from the kernel's VmHWM
	// high-water mark, which only resets forward — measuring the
	// smaller phase first keeps both readings meaningful even if the
	// reset below is unavailable.
	var streamed []byte
	heap, rss, err := measurePeak(func() error {
		// Generate -> spill -> free one rank at a time: the whole point
		// is that no more than a batch of generated snapshots is ever
		// resident on the producer side.
		f, _, err := spill.FinalizeRanks(procs, SyntheticSnapshot, nil,
			core.Options{SpillDir: dir, CollectorRunID: "membench", MaxResidentSnapshots: memBatch})
		if err != nil {
			return err
		}
		var b bytes.Buffer
		if _, err := f.WriteTo(&b); err != nil {
			return err
		}
		streamed = b.Bytes()
		return nil
	})
	if err != nil {
		return pt, fmt.Errorf("finalize_mem/%d streamed: %w", procs, err)
	}
	pt.StreamedPeakHeap, pt.StreamedPeakRSS = heap, rss

	var inmem []byte
	heap, rss, err = measurePeak(func() error {
		snaps := SyntheticSnapshots(procs)
		f, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
		var b bytes.Buffer
		if _, err := f.WriteTo(&b); err != nil {
			return err
		}
		inmem = b.Bytes()
		return nil
	})
	if err != nil {
		return pt, fmt.Errorf("finalize_mem/%d in-memory: %w", procs, err)
	}
	pt.InMemPeakHeap, pt.InMemPeakRSS = heap, rss

	pt.Identical = bytes.Equal(streamed, inmem)
	pt.TraceB = len(inmem)
	if pt.InMemPeakHeap > 0 {
		pt.PeakRatio = float64(pt.StreamedPeakHeap) / float64(pt.InMemPeakHeap)
	}
	if !pt.Identical {
		return pt, fmt.Errorf("finalize_mem/%d: streamed trace differs from in-memory (%d vs %d bytes)",
			procs, len(streamed), len(inmem))
	}
	return pt, nil
}

// measurePeak runs f and returns the peak live heap (max HeapAlloc
// polled at 2ms) and peak process RSS (Linux VmHWM; 0 elsewhere) it
// reached. The heap is settled with a GC and the RSS high-water mark
// reset before f starts, so each phase is measured from its own
// baseline; HeapAlloc includes garbage not yet collected, which is
// exactly the memory pressure a bounded-memory finalize must bound.
func measurePeak(f func() error) (peakHeap, peakRSS uint64, err error) {
	debug.FreeOSMemory() // settle the heap and return freed pages first
	resetPeakRSS()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peakHeap = ms.HeapAlloc

	done := make(chan struct{})
	polled := make(chan uint64, 1)
	go func() {
		peak := peakHeap
		var ms runtime.MemStats
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				polled <- peak
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	err = f()
	runtime.ReadMemStats(&ms) // catch a final spike the ticker missed
	close(done)
	if p := <-polled; p > peakHeap {
		peakHeap = p
	}
	if ms.HeapAlloc > peakHeap {
		peakHeap = ms.HeapAlloc
	}
	peakRSS = readPeakRSS()
	return peakHeap, peakRSS, err
}

// resetPeakRSS clears the kernel's per-process RSS high-water mark
// (Linux: write 5 to /proc/self/clear_refs). Best-effort: on other
// platforms readPeakRSS reports 0 and the heap numbers carry the
// comparison.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// readPeakRSS returns VmHWM from /proc/self/status in bytes, or 0.
func readPeakRSS() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// Print renders the sweep as the evaluation table.
func (r *FinalizeMemResult) Print(w io.Writer) {
	header(w, fmt.Sprintf("finalize_mem: in-memory vs streamed peak memory (batch=%d)", memBatch))
	fmt.Fprintf(w, "%6s %14s %14s %14s %14s %7s %10s\n",
		"procs", "inmem heap MB", "stream heap MB", "inmem rss MB", "stream rss MB", "ratio", "identical")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%6d %14s %14s %14s %14s %6.2fx %10v\n",
			p.Procs, mb(p.InMemPeakHeap), mb(p.StreamedPeakHeap),
			mb(p.InMemPeakRSS), mb(p.StreamedPeakRSS), p.PeakRatio, p.Identical)
	}
}

func mb(b uint64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(b)/(1024*1024))
}
