// Package otf converts Pilgrim traces into a flat, OTF-inspired text
// event format, one event per line, so existing line-oriented analysis
// tooling can consume them. This realizes the conversion direction the
// paper lists as future work ("a converter that converts Pilgrim
// traces into some existing trace formats (e.g., OTF)").
//
// Format (tab separated):
//
//	HDR	pilgrim-otf	1	<ranks>	<timingMode>
//	DEF	FUNC	<id>	<name>
//	EVT	<rank>	<seq>	<tStart>	<tEnd>	<funcId>	<rendered call>
package otf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// Convert writes the whole trace as OTF-style text. Each event's
// tStart and tEnd are its call's times as core.DecodeRank resolves
// them: recovered in lossy timing mode, and in aggregated mode the
// rank's CST mean durations laid end to end from 0, the timeline the
// analysis exports show.
func Convert(f *trace.File, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "HDR\tpilgrim-otf\t1\t%d\t%d\n", f.NumRanks, f.TimingMode)
	// Function definitions used anywhere in the trace.
	used := map[mpispec.FuncID]bool{}
	perRank := make([][]core.DecodedCall, f.NumRanks)
	for r := 0; r < f.NumRanks; r++ {
		calls, err := core.DecodeRank(f, r)
		if err != nil {
			return err
		}
		perRank[r] = calls
		for _, c := range calls {
			used[c.Func] = true
		}
	}
	for id := mpispec.FuncID(0); id < mpispec.NumFuncs; id++ {
		if used[id] {
			fmt.Fprintf(bw, "DEF\tFUNC\t%d\t%s\n", id, id.Name())
		}
	}
	for r, calls := range perRank {
		for i, c := range calls {
			fmt.Fprintf(bw, "EVT\t%d\t%d\t%d\t%d\t%d\t%s\n",
				r, i, c.TStart, c.TEnd, c.Func, c.Decoded)
		}
	}
	return bw.Flush()
}

// Event is one parsed OTF-style event line.
type Event struct {
	Rank   int
	Seq    int
	TStart int64
	TEnd   int64
	Func   mpispec.FuncID
	Text   string
}

// Parse reads back the text format (used by tests and downstream
// tools that want structured access). It refuses an event whose
// numbers do not parse, whose rank is outside the header's count or
// that precedes the header, and whose function id names no MPI
// function.
func Parse(r io.Reader) (ranks int, events []Event, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		fields := strings.SplitN(line, "\t", 7)
		switch fields[0] {
		case "HDR":
			if len(fields) < 5 {
				return 0, nil, fmt.Errorf("otf: bad header at line %d", lineNo)
			}
			if fields[1] != "pilgrim-otf" {
				return 0, nil, fmt.Errorf("otf: unknown format %q", fields[1])
			}
			ranks, err = strconv.Atoi(fields[3])
			if err != nil || ranks < 0 {
				return 0, nil, fmt.Errorf("otf: bad rank count at line %d", lineNo)
			}
		case "DEF":
			// definitions are informational
		case "EVT":
			if len(fields) < 7 {
				return 0, nil, fmt.Errorf("otf: bad event at line %d", lineNo)
			}
			ev, err := parseEvent(fields, ranks)
			if err != nil {
				return 0, nil, fmt.Errorf("otf: bad event at line %d: %w", lineNo, err)
			}
			events = append(events, ev)
		default:
			return 0, nil, fmt.Errorf("otf: unknown record %q at line %d", fields[0], lineNo)
		}
	}
	return ranks, events, sc.Err()
}

// parseEvent reads the fields of an EVT line of a trace of ranks
// ranks.
func parseEvent(fields []string, ranks int) (Event, error) {
	var n [5]int64 // rank, seq, tStart, tEnd, func id
	for i := range n {
		v, err := strconv.ParseInt(fields[1+i], 10, 64)
		if err != nil {
			return Event{}, err
		}
		n[i] = v
	}
	switch {
	case n[0] < 0 || n[0] >= int64(ranks):
		return Event{}, fmt.Errorf("rank %d outside the header's %d", n[0], ranks)
	case n[4] < 0 || n[4] >= int64(mpispec.NumFuncs):
		return Event{}, fmt.Errorf("function id %d outside [0, %d)", n[4], mpispec.NumFuncs)
	}
	return Event{Rank: int(n[0]), Seq: int(n[1]), TStart: n[2], TEnd: n[3], Func: mpispec.FuncID(n[4]), Text: fields[6]}, nil
}
