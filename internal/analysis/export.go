package analysis

import (
	"fmt"
	"io"

	"github.com/hpcrepro/pilgrim/internal/traceevent"
)

// Exporters: Chrome trace-event JSON (loadable in Perfetto and
// chrome://tracing, document shape shared via internal/traceevent)
// and CSV tables.

// WritePerfetto emits the analysis as Chrome trace-event JSON: one
// track (tid) per rank under a single process, a complete ("X") event
// per MPI call, and a flow arrow per matched message from the send's
// posting call to the receive's completing call.
func (a *Analysis) WritePerfetto(w io.Writer) error {
	doc := traceevent.NewDoc()
	for r := range a.Events {
		doc.Add(traceevent.ThreadName(0, r, fmt.Sprintf("rank %d", r)))
	}
	for r, evs := range a.Events {
		for _, ev := range evs {
			doc.Add(traceevent.Event{
				Name: ev.Func.Name(), Ph: "X",
				Ts: traceevent.US(ev.TStart), Dur: traceevent.US(ev.TEnd - ev.TStart),
				Pid: 0, Tid: r,
				Args: map[string]any{"call": ev.Index},
			})
		}
	}
	for i, m := range a.Matches {
		doc.Add(traceevent.Event{
			Name: "msg", Ph: "s", Cat: "p2p", ID: i + 1,
			Ts: traceevent.US(m.Send.TPost), Pid: 0, Tid: m.Send.Rank,
			Args: map[string]any{"bytes": m.Send.Bytes, "tag": m.Send.Tag},
		}, traceevent.Event{
			Name: "msg", Ph: "f", BP: "e", Cat: "p2p", ID: i + 1,
			Ts: traceevent.US(m.Recv.TDone), Pid: 0, Tid: m.Recv.Rank,
		})
	}
	return doc.Write(w)
}

// WriteCommMatrixCSV emits the traffic matrix as one row per
// (src, dst) pair with a message and a byte column.
func (a *Analysis) WriteCommMatrixCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "src,dst,messages,bytes"); err != nil {
		return err
	}
	m := a.Matrix
	for s := 0; s < m.Ranks; s++ {
		for d := 0; d < m.Ranks; d++ {
			if m.Count[s][d] == 0 && m.Bytes[s][d] == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%d,%d,%d,%d\n", s, d, m.Count[s][d], m.Bytes[s][d]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteProfileCSV emits the per-function time profile.
func (a *Analysis) WriteProfileCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "function,calls,total_ns,min_rank_ns,mean_rank_ns,max_rank_ns,imbalance"); err != nil {
		return err
	}
	for _, fp := range a.Profile.Funcs {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%.1f,%d,%.3f\n",
			fp.Func.Name(), fp.Calls, fp.TotalNs, fp.MinRankNs, fp.MeanNs, fp.MaxRankNs, fp.Imbalance); err != nil {
			return err
		}
	}
	return nil
}

// WriteMessagesCSV emits one row per matched message, with post and
// completion times on both sides (nanoseconds since each rank's
// timeline origin).
func (a *Analysis) WriteMessagesCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "src,dst,tag,bytes,send_post_ns,send_done_ns,recv_post_ns,recv_done_ns"); err != nil {
		return err
	}
	for _, m := range a.Matches {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d\n",
			m.Send.Rank, m.Recv.Rank, m.Send.Tag, m.Send.Bytes,
			m.Send.TPost, m.Send.TDone, m.Recv.TPost, m.Recv.TDone); err != nil {
			return err
		}
	}
	return nil
}
