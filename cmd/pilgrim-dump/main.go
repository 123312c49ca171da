// pilgrim-dump decompresses a Pilgrim trace file and prints the
// recovered call stream — the decoder the paper uses to check that
// compression is lossless. It can dump one rank or summarize all, and
// with -journal it inspects a captured collector journal instead: the
// capture-side debugging companion to pilgrim-loadgen.
//
// Usage:
//
//	pilgrim-dump -rank 0 trace.pilgrim
//	pilgrim-dump -summary trace.pilgrim
//	pilgrim-dump -journal out/journal/myrun
//	pilgrim-dump -journal out            # every run journal beneath
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

func main() {
	var (
		rank    = flag.Int("rank", 0, "rank whose call stream to dump")
		summary = flag.Bool("summary", false, "print per-function call counts for all ranks instead")
		top     = flag.Int("top", 0, "print only the top N functions by call count (implies -summary)")
		grammar = flag.Bool("grammar", false, "print the rank's grammar rules instead of the expanded stream")
		limit   = flag.Int("n", 0, "dump at most n calls (0 = all)")
		journal = flag.String("journal", "", "inspect captured run journal(s) under this directory instead of a trace")
	)
	flag.Parse()
	if *journal != "" {
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		dumpJournals(w, *journal)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pilgrim-dump [-rank N | -summary] trace.pilgrim | pilgrim-dump -journal <dir>")
		os.Exit(2)
	}
	file, err := pilgrim.Load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	fmt.Fprintf(w, "# ranks=%d timing=%s cst=%d grammars=%d size=%dB\n",
		file.NumRanks, timingName(file.TimingMode), file.CST.Len(), len(file.Grammars), file.SizeBytes())
	fmt.Fprintf(w, "# %d grammars, %d shapes\n", len(file.Grammars), len(file.Representatives()))
	// Section sizes are the bytes each takes in the raw body; show the
	// composition as shares of their own total, which leaves out a
	// salvage section. The call and timing sections end in their
	// indices, which are shown on their own.
	cstB, cfgB, durB, intB := file.SectionSizes()
	idx := file.IndexStorage()
	idxB := idx[0].Bytes + idx[1].Bytes + idx[2].Bytes
	cfgB, durB, intB = cfgB-idx[0].Bytes, durB-idx[1].Bytes, intB-idx[2].Bytes
	secTotal := cstB + cfgB + durB + intB + idxB
	fmt.Fprintf(w, "# sections: cst=%dB (%s) grammars=%dB (%s) duration=%dB (%s) interval=%dB (%s) index=%dB (%s)\n",
		cstB, pct(cstB, secTotal), cfgB, pct(cfgB, secTotal),
		durB, pct(durB, secTotal), intB, pct(intB, secTotal), idxB, pct(idxB, secTotal))
	fmt.Fprint(w, "# index:")
	for k, name := range []string{"ranks", "durations", "intervals"} {
		if k > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, " %s %s", name, idx[k].Form)
		if strings.HasPrefix(idx[k].Form, "column") {
			fmt.Fprintf(w, " stride %d", idx[k].Stride)
		}
		fmt.Fprintf(w, " %dB", idx[k].Bytes)
	}
	fmt.Fprintln(w)
	cs := file.CSTStorage()
	fmt.Fprintf(w, "# cst: %d entries, %d templates, stored %s %dB (raw %dB)\n",
		cs.Entries, cs.Templates, cs.Form, cs.Stored, cs.Raw)
	body := file.BodyStorage()
	fmt.Fprintf(w, "# body: %s %dB -> %dB\n", body.Form, body.Raw, body.Stored)
	if raw, total := file.UncompressedEstimate(), file.SizeBytes(); raw > 0 && total > 0 {
		fmt.Fprintf(w, "# compression: %d calls replayed raw ≈ %dB, ratio %.1fx\n",
			file.CST.Calls(), raw, float64(raw)/float64(total))
	}
	if s := file.Salvage; s != nil {
		fmt.Fprintf(w, "# SALVAGED trace: failed ranks=%v reason=%q\n", s.FailedRanks, s.Reason)
		fmt.Fprintf(w, "# calls captured per rank: %v\n", s.Calls)
	}

	if *summary || *top > 0 {
		total := map[mpispec.FuncID]int{}
		grand := 0
		for r := 0; r < file.NumRanks; r++ {
			calls, err := pilgrim.DecodeRank(file, r)
			if err != nil {
				fatal(err)
			}
			for f, n := range core.CallCounts(calls) {
				total[f] += n
				grand += n
			}
		}
		type kv struct {
			f mpispec.FuncID
			n int
		}
		var rows []kv
		for f, n := range total {
			rows = append(rows, kv{f, n})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].n != rows[j].n {
				return rows[i].n > rows[j].n
			}
			return rows[i].f < rows[j].f
		})
		for i, r := range rows {
			if *top > 0 && i >= *top {
				fmt.Fprintf(w, "... (%d more functions)\n", len(rows)-i)
				break
			}
			fmt.Fprintf(w, "%10d  %5s  %s\n", r.n, pct(r.n, grand), r.f.Name())
		}
		return
	}

	if *grammar {
		dumpGrammar(w, file, *rank)
		return
	}

	calls, err := pilgrim.DecodeRank(file, *rank)
	if err != nil {
		fatal(err)
	}
	for i, c := range calls {
		if *limit > 0 && i >= *limit {
			fmt.Fprintf(w, "... (%d more calls)\n", len(calls)-i)
			break
		}
		if file.TimingMode == pilgrim.TimingLossy {
			fmt.Fprintf(w, "[%d] t=%d..%d %s\n", i, c.TStart, c.TEnd, c.Decoded)
		} else {
			fmt.Fprintf(w, "[%d] avg=%dns %s\n", i, c.AvgDuration, c.Decoded)
		}
	}
}

// dumpGrammar prints the rank's production rules with the decoded
// call each terminal stands for — the compressed representation
// itself, as in the paper's Figure 1.
func dumpGrammar(w *bufio.Writer, file *pilgrim.TraceFile, rank int) {
	idx, err := file.GrammarIndex()
	if err != nil {
		fatal(err)
	}
	if rank < 0 || rank >= len(idx) {
		fatal(fmt.Errorf("rank %d out of range", rank))
	}
	g := file.Grammars[idx[rank]]
	rules := g.Rules()
	fmt.Fprintf(w, "# rank %d uses grammar %d (%d rules, %d calls when expanded)\n",
		rank, idx[rank], len(rules), g.InputLen())
	for ri, body := range rules {
		fmt.Fprintf(w, "R%d ->", ri)
		for _, s := range body {
			if s.Val < 0 {
				fmt.Fprintf(w, " R%d", -s.Val-1)
			} else {
				fmt.Fprintf(w, " t%d", s.Val)
			}
			if s.Exp > 1 {
				fmt.Fprintf(w, "^%d", s.Exp)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "# terminals:")
	seen := map[int32]bool{}
	for _, body := range rules {
		for _, s := range body {
			if s.Val >= 0 && !seen[s.Val] {
				seen[s.Val] = true
				if d, err := file.DecodedSig(s.Val); err == nil {
					fmt.Fprintf(w, "t%d = %s\n", s.Val, d)
				}
			}
		}
	}
}

// dumpJournals prints each run journal under path: manifest identity,
// frame counts and byte totals per (rank, epoch), and the torn-tail
// report — what a capture actually holds before loadgen replays it.
func dumpJournals(w *bufio.Writer, path string) {
	dirs, err := framelog.Find(path)
	if err != nil {
		fatal(err)
	}
	for _, dir := range dirs {
		jr, err := framelog.OSDir(dir).Open()
		if err != nil {
			fatal(err)
		}
		man := jr.Manifest()
		fmt.Fprintf(w, "journal %s\n", dir)
		fmt.Fprintf(w, "  run=%s epoch=%d world=%d state=%s", man.RunID, man.Epoch, man.World, man.State)
		if man.Reason != "" {
			fmt.Fprintf(w, " reason=%q", man.Reason)
		}
		fmt.Fprintln(w)

		type key struct {
			rank  int
			epoch uint64
		}
		counts := map[key]int{}
		bytes := map[key]int64{}
		var keys []key
		var pairs int
		var total int64
		for {
			e, err := jr.Next()
			if err != nil {
				break // io.EOF; torn tails reported below
			}
			k := key{e.Hello.Rank, e.Hello.Epoch}
			if counts[k] == 0 {
				keys = append(keys, k)
			}
			counts[k]++
			bytes[k] += e.Bytes()
			pairs++
			total += e.Bytes()
		}
		jr.Close()
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].epoch != keys[j].epoch {
				return keys[i].epoch < keys[j].epoch
			}
			return keys[i].rank < keys[j].rank
		})
		fmt.Fprintf(w, "  frames: %d pairs, %dB on the wire\n", pairs, total)
		for _, k := range keys {
			fmt.Fprintf(w, "    rank %4d epoch %d: %d pairs, %dB\n", k.rank, k.epoch, counts[k], bytes[k])
		}
		if torn, trunc := jr.Torn(); torn {
			fmt.Fprintf(w, "  TORN TAIL: %d trailing bytes unreadable\n", trunc)
		} else if pairs == 0 {
			fmt.Fprintf(w, "  (no frames — captured without -keep-journal, or dropped at finalize)\n")
		}
	}
}

// pct formats part/total as a percentage.
func pct(part, total int) string {
	if total <= 0 {
		return "0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}

func timingName(mode uint8) string {
	if mode == pilgrim.TimingLossy {
		return "lossy"
	}
	return "aggregated"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pilgrim-dump:", err)
	os.Exit(1)
}
