package analysis

import "github.com/hpcrepro/pilgrim/internal/mpispec"

// Point-to-point matching and the analyses built on it: late-sender /
// late-receiver statistics and a longest-path critical-path estimate.

// Match pairs one send with the receive that consumed it.
type Match struct {
	Send *SendOp
	Recv *RecvOp
}

// channelKey identifies an ordered message channel. MPI guarantees
// non-overtaking per (source, dest, communicator, tag), so matching
// within a channel is a positional zip of send posts against receive
// posts. The communicator is its simulated context, which every member
// shares: a symbolic id can name different communicators on disjoint
// groups, and two communicators can have the same members.
type channelKey struct {
	src, dst int
	comm     int64
	tag      int64
}

// matchP2P zips sends against completed receives channel by channel.
// Receives still carrying a wildcard source (never completed, or
// cancelled before a message arrived) cannot be placed on a channel
// and are reported unmatched.
func (a *Analysis) matchP2P() {
	sortOps(a.Sends)
	sortOps(a.Recvs)

	sendQ := map[channelKey][]*SendOp{}
	for _, s := range a.Sends {
		if s.Cancelled {
			a.UnmatchedSends = append(a.UnmatchedSends, s)
			continue
		}
		k := channelKey{src: s.Rank, dst: s.Dst, comm: s.Comm.Context(), tag: s.Tag}
		sendQ[k] = append(sendQ[k], s)
	}

	matched := map[*RecvOp]bool{}
	for _, r := range a.Recvs {
		if !r.Completed || r.Cancelled || r.Src < 0 || r.Tag < 0 {
			continue
		}
		k := channelKey{src: r.Src, dst: r.Rank, comm: r.Comm.Context(), tag: r.Tag}
		if q := sendQ[k]; len(q) > 0 {
			a.Matches = append(a.Matches, Match{Send: q[0], Recv: r})
			sendQ[k] = q[1:]
			matched[r] = true
		}
	}

	for _, q := range sendQ {
		a.UnmatchedSends = append(a.UnmatchedSends, q...)
	}
	sortOps(a.UnmatchedSends)
	for _, r := range a.Recvs {
		if !matched[r] {
			a.UnmatchedRecvs = append(a.UnmatchedRecvs, r)
		}
	}
}

// LateStats summarizes sender/receiver arrival skew over matched
// pairs. A late sender posted after its receive was already waiting
// (receiver idle); a late receiver posted after the send (sender-side
// buffering or blocking). Wait totals are the summed skews.
type LateStats struct {
	Matched       int
	LateSenders   int
	LateReceivers int

	RecvWaitNs    int64 // total receiver idle time (late senders)
	MaxRecvWaitNs int64
	SendWaitNs    int64 // total sender-ahead time (late receivers)
	MaxSendWaitNs int64
}

func lateStats(matches []Match) LateStats {
	var st LateStats
	st.Matched = len(matches)
	for _, m := range matches {
		skew := m.Send.TPost - m.Recv.TPost
		if skew > 0 {
			st.LateSenders++
			st.RecvWaitNs += skew
			if skew > st.MaxRecvWaitNs {
				st.MaxRecvWaitNs = skew
			}
		} else if skew < 0 {
			st.LateReceivers++
			st.SendWaitNs -= skew
			if -skew > st.MaxSendWaitNs {
				st.MaxSendWaitNs = -skew
			}
		}
	}
	return st
}

// CritStep is one event on the estimated critical path.
type CritStep struct {
	Rank   int
	Index  int
	Func   mpispec.FuncID
	TStart int64
	TEnd   int64
	ViaMsg bool // reached from the previous step through a matched message
	WaitNs int64
}

// CriticalPath estimates the execution's critical path: starting from
// the globally latest event end, it walks backwards choosing at each
// event the latest-finishing predecessor — the previous call on the
// same rank, or, at a receive completion, the posting call of the
// matched send. The result is in forward (chronological) order. The
// estimate only considers MPI calls (computation between calls rides
// on the same-rank edges implicitly) and requires per-call timing to
// be meaningful across ranks (lossy timing mode).
func (a *Analysis) CriticalPath() []CritStep {
	// Message edges indexed by the receive's completing event.
	type edgeKey struct{ rank, index int }
	edges := map[edgeKey][]*SendOp{}
	for _, m := range a.Matches {
		k := edgeKey{m.Recv.Rank, m.Recv.DoneIndex}
		edges[k] = append(edges[k], m.Send)
	}

	// Start at the global latest event end.
	curRank, curIdx := -1, -1
	var latest int64 = -1
	for r, evs := range a.Events {
		if n := len(evs); n > 0 && evs[n-1].TEnd > latest {
			latest, curRank, curIdx = evs[n-1].TEnd, r, n-1
		}
	}
	if curRank < 0 {
		return nil
	}

	var rev []CritStep
	total := 0
	for _, evs := range a.Events {
		total += len(evs)
	}
	for steps := 0; steps <= total; steps++ {
		ev := a.Events[curRank][curIdx]
		rev = append(rev, CritStep{Rank: ev.Rank, Index: ev.Index, Func: ev.Func,
			TStart: ev.TStart, TEnd: ev.TEnd})

		// Candidate predecessors: previous call on the same rank, or the
		// posting call of a message this event completed.
		prevRank, prevIdx := -1, -1
		var prevEnd int64 = -1
		msg := false
		if curIdx > 0 {
			p := a.Events[curRank][curIdx-1]
			prevRank, prevIdx, prevEnd = curRank, curIdx-1, p.TEnd
		}
		for _, s := range edges[edgeKey{curRank, curIdx}] {
			se := a.Events[s.Rank][s.Index]
			// Reconstructed per-rank clocks carry independent relative
			// error, so a send can appear to end after the receive that
			// consumed it; such edges are skew artifacts — a real
			// predecessor never outlives its successor.
			if se.TEnd > ev.TEnd {
				continue
			}
			if se.TEnd > prevEnd {
				prevRank, prevIdx, prevEnd, msg = s.Rank, s.Index, se.TEnd, true
			}
		}
		if prevRank < 0 {
			break
		}
		// The edge into the event just appended crosses ranks if it is a
		// message edge.
		rev[len(rev)-1].ViaMsg = msg
		curRank, curIdx = prevRank, prevIdx
	}

	// Reverse into chronological order and annotate the wait portion of
	// each step (time between the predecessor's end and this call's
	// end — the slack the path is actually made of).
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	for i := 1; i < len(rev); i++ {
		if w := rev[i].TEnd - rev[i-1].TEnd; w > 0 {
			rev[i].WaitNs = w
		}
	}
	return rev
}
