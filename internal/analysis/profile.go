package analysis

import (
	"sort"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// CommMatrix is the rank×rank point-to-point traffic matrix, counted
// at send post time (the same instant the runtime's metrics layer
// counts MsgsSent/BytesSent), so its per-rank totals are directly
// comparable with the live counters. Collectives are excluded — the
// runtime accounts them separately — and ProcNull sends never post.
type CommMatrix struct {
	Ranks int
	Count [][]int64 // [src][dst] messages
	Bytes [][]int64 // [src][dst] payload bytes
}

func buildMatrix(n int, sends []*SendOp) *CommMatrix {
	m := &CommMatrix{Ranks: n, Count: make([][]int64, n), Bytes: make([][]int64, n)}
	for i := range m.Count {
		m.Count[i] = make([]int64, n)
		m.Bytes[i] = make([]int64, n)
	}
	for _, s := range sends {
		if s.Rank < n && s.Dst < n {
			m.Count[s.Rank][s.Dst]++
			m.Bytes[s.Rank][s.Dst] += s.Bytes
		}
	}
	return m
}

// SentMsgsByRank returns each rank's outbound message count (row sums).
func (m *CommMatrix) SentMsgsByRank() []int64 {
	out := make([]int64, m.Ranks)
	for r, row := range m.Count {
		for _, c := range row {
			out[r] += c
		}
	}
	return out
}

// SentBytesByRank returns each rank's outbound payload bytes.
func (m *CommMatrix) SentBytesByRank() []int64 {
	out := make([]int64, m.Ranks)
	for r, row := range m.Bytes {
		for _, b := range row {
			out[r] += b
		}
	}
	return out
}

// TotalMsgs returns the matrix-wide message count.
func (m *CommMatrix) TotalMsgs() int64 {
	var t int64
	for _, c := range m.SentMsgsByRank() {
		t += c
	}
	return t
}

// TotalBytes returns the matrix-wide payload bytes.
func (m *CommMatrix) TotalBytes() int64 {
	var t int64
	for _, b := range m.SentBytesByRank() {
		t += b
	}
	return t
}

// FuncProfile is one MPI function's time profile across ranks.
type FuncProfile struct {
	Func      mpispec.FuncID
	Calls     int64
	TotalNs   int64
	MinRankNs int64   // smallest per-rank time among ranks that call it
	MaxRankNs int64   // largest per-rank time
	MeanNs    float64 // mean per-rank time over all ranks
	Imbalance float64 // MaxRankNs / MeanNs (1.0 = perfectly balanced)
	PerRankNs []int64
}

// Profile aggregates time spent inside MPI per function and per rank.
type Profile struct {
	Ranks       int
	Funcs       []FuncProfile // sorted by TotalNs descending
	RankTotalNs []int64       // total MPI time per rank, all functions
}

func buildProfile(events [][]Event) *Profile {
	n := len(events)
	p := &Profile{Ranks: n, RankTotalNs: make([]int64, n)}
	perFunc := map[mpispec.FuncID][]int64{}
	calls := map[mpispec.FuncID]int64{}
	for r, evs := range events {
		for _, ev := range evs {
			d := ev.Duration()
			f := ev.Func
			if perFunc[f] == nil {
				perFunc[f] = make([]int64, n)
			}
			perFunc[f][r] += d
			calls[f]++
			p.RankTotalNs[r] += d
		}
	}
	for f, perRank := range perFunc {
		fp := FuncProfile{Func: f, Calls: calls[f], PerRankNs: perRank, MinRankNs: -1}
		for _, t := range perRank {
			fp.TotalNs += t
			if t > fp.MaxRankNs {
				fp.MaxRankNs = t
			}
			if t > 0 && (fp.MinRankNs < 0 || t < fp.MinRankNs) {
				fp.MinRankNs = t
			}
		}
		if fp.MinRankNs < 0 {
			fp.MinRankNs = 0
		}
		if n > 0 {
			fp.MeanNs = float64(fp.TotalNs) / float64(n)
		}
		if fp.MeanNs > 0 {
			fp.Imbalance = float64(fp.MaxRankNs) / fp.MeanNs
		}
		p.Funcs = append(p.Funcs, fp)
	}
	sort.Slice(p.Funcs, func(i, j int) bool {
		if p.Funcs[i].TotalNs != p.Funcs[j].TotalNs {
			return p.Funcs[i].TotalNs > p.Funcs[j].TotalNs
		}
		return p.Funcs[i].Func < p.Funcs[j].Func
	})
	return p
}
