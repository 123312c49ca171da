// Package scalatrace is a model of ScalaTrace V4 used as the
// comparison baseline in the Figure 5-7 experiments, reproducing the
// design properties the paper attributes to it:
//
//   - it records only its supported function subset (~125 functions,
//     Table 1) — in particular no MPI_Test* family — and only a subset
//     of each call's parameters (no request tracking, no memory
//     pointers, datatypes by size only);
//   - source/destination ranks are location-independent (encoded
//     relative to the caller), which is why purely stencil-shaped
//     codes like LU compress to a constant;
//   - intra-process compression uses RSD-style loop folding over the
//     event stream (repeating blocks become (body, count) nodes);
//   - inter-process compression merges ranks only when their whole
//     compressed streams are identical; any per-rank parameter
//     variation forces per-rank storage, which is what drives the
//     near-linear growth the paper observes;
//   - events are stored as fixed-layout verbose records rather than
//     Pilgrim's deduplicated varint signatures.
//
// The tracer deliberately loses the information ScalaTrace loses: its
// output cannot reproduce completion orders (no Test*/request ids) nor
// buffer identities.
package scalatrace

import (
	"encoding/binary"
	"hash/fnv"
	"time"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// eventBytes is the modeled verbose per-event record size before loop
// folding: a fixed header (function id, count, type size, peer, tag,
// comm) as stored by ScalaTrace's RSD nodes.
const eventBytes = 24

// loopNodeOverhead models the RSD bookkeeping per folded loop.
const loopNodeOverhead = 8

// event is one recorded call, already parameter-reduced. arrB is the
// byte volume of array-valued parameters (counts/displacements), which
// ScalaTrace stores verbatim in the event record.
type event struct {
	fn   mpispec.FuncID
	a, b int64 // count-like, peer/tag-like summaries
	c    int64
	arrB int64
}

// node is an RSD: either a single event (count==1, body nil) or a loop
// of a repeated block.
type node struct {
	ev    event
	body  []node
	count int64
}

func (n *node) isLoop() bool { return n.body != nil }

func nodesEqual(a, b []node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].count != b[i].count || a[i].isLoop() != b[i].isLoop() {
			return false
		}
		if a[i].isLoop() {
			if !nodesEqual(a[i].body, b[i].body) {
				return false
			}
		} else if a[i].ev != b[i].ev {
			return false
		}
	}
	return true
}

// maxWindow bounds the RSD loop-body length searched on each append.
// Application time-step bodies commonly span dozens of events (a
// StirTurb step is 33), so the window must comfortably exceed that.
const maxWindow = 128

// Tracer is one rank's ScalaTrace-model state. It implements
// mpispec.Interceptor.
type Tracer struct {
	Rank    int
	nodes   []node
	covered map[mpispec.FuncID]bool

	NCalls   int64 // calls seen (recorded or not)
	NDropped int64 // calls outside the supported subset
}

// NewTracer builds the baseline tracer for one rank.
func NewTracer(rank int) *Tracer {
	cov := mpispec.ScalaTraceCoverage()
	covered := make(map[mpispec.FuncID]bool, int(mpispec.NumFuncs))
	for id := mpispec.FuncID(0); id < mpispec.NumFuncs; id++ {
		covered[id] = cov.Supported[mpispec.Spec[id].Name]
	}
	return &Tracer{Rank: rank, covered: covered}
}

// Pre implements mpispec.Interceptor.
func (t *Tracer) Pre(rec *mpispec.CallRecord) {}

// MemAlloc implements mpispec.Interceptor (ScalaTrace does not track
// allocations).
func (t *Tracer) MemAlloc(addr, size uint64, device int32) {}

// MemFree implements mpispec.Interceptor.
func (t *Tracer) MemFree(addr uint64) {}

// Post implements mpispec.Interceptor: reduce the call to ScalaTrace's
// parameter subset and fold it into the RSD stream.
func (t *Tracer) Post(rec *mpispec.CallRecord) {
	t.NCalls++
	if !t.covered[rec.Func] {
		t.NDropped++
		return
	}
	ev := t.reduce(rec)
	t.append(node{ev: ev, count: 1})
}

// reduce keeps the modeled parameter subset: function id, a count/size
// summary, a location-independent peer summary, and a tag/aux value.
// Array-valued parameters (e.g. alltoallv counts) are folded into a
// hash — they are per-rank data ScalaTrace stores in its event.
func (t *Tracer) reduce(rec *mpispec.CallRecord) event {
	spec := mpispec.Spec[rec.Func]
	base := int64(t.Rank)
	for _, a := range rec.Args {
		if a.Kind == mpispec.KComm && len(a.Arr) > 0 {
			base = a.Arr[0]
			break
		}
	}
	ev := event{fn: rec.Func}
	h := fnv.New64a()
	var scratch [8]byte
	for i, a := range rec.Args {
		var pname string
		if i < len(spec.Params) {
			pname = spec.Params[i].Name
		}
		switch a.Kind {
		case mpispec.KInt:
			ev.a = ev.a*31 + a.I
		case mpispec.KRank:
			// Location independent: store the delta.
			switch pname {
			case "dest", "source", "rank_source", "rank_dest":
				if a.I >= 0 {
					ev.b = ev.b*31 + (a.I - base)
				} else {
					ev.b = ev.b*31 + a.I
				}
			default:
				ev.b = ev.b*31 + a.I
			}
		case mpispec.KTag:
			ev.c = ev.c*31 + a.I // tags retained (our configuration)
		case mpispec.KDatatype:
			ev.a = ev.a*31 + a.I // "only the size": handle stands in
		case mpispec.KIntArray, mpispec.KIndexArray:
			ev.arrB += int64(4 * len(a.Arr))
			for _, v := range a.Arr {
				binary.LittleEndian.PutUint64(scratch[:], uint64(v))
				h.Write(scratch[:])
			}
		case mpispec.KComm:
			ev.a = ev.a*31 + a.I
			// KRequest, KReqArray, KStatus, KStatArray, KPtr, KString,
			// KColor, KKey: not preserved by the baseline.
		}
	}
	ev.c = ev.c*31 + int64(h.Sum64()&0xFFFFFFF)
	return ev
}

// append adds a node and greedily folds trailing repetitions (RSD
// construction): first extending an existing trailing loop, then
// searching for a new repeated block up to maxWindow nodes long.
func (t *Tracer) append(n node) {
	t.nodes = append(t.nodes, n)
	for t.fold() {
	}
}

// fold attempts one folding step on the tail; reports whether it
// changed anything.
func (t *Tracer) fold() bool {
	ns := t.nodes
	ln := len(ns)
	if ln >= 2 {
		// Merge equal neighbours (a loop of body length 1, or extend).
		a, b := &ns[ln-2], &ns[ln-1]
		if a.isLoop() && !b.isLoop() && len(a.body) == 1 && !a.body[0].isLoop() && a.body[0].ev == b.ev && b.count == 1 {
			a.count++
			t.nodes = ns[:ln-1]
			return true
		}
		if !a.isLoop() && !b.isLoop() && a.ev == b.ev {
			merged := node{body: []node{{ev: a.ev, count: 1}}, count: a.count + b.count}
			t.nodes = append(ns[:ln-2], merged)
			return true
		}
	}
	// Extend a loop when the block after it repeats its body.
	for w := 1; w <= maxWindow; w++ {
		if ln < w+1 {
			break
		}
		cand := ns[ln-w-1]
		if !cand.isLoop() || len(cand.body) != w {
			continue
		}
		if nodesEqual(cand.body, ns[ln-w:]) {
			cand.count++
			t.nodes = append(ns[:ln-w-1], cand)
			return true
		}
	}
	// Form a new loop from two adjacent equal blocks of width w >= 2.
	last := &ns[ln-1]
	for w := 2; w <= maxWindow; w++ {
		if ln < 2*w {
			break
		}
		// Cheap precheck: the block ends must match before paying for
		// the full O(w) comparison.
		cand := &ns[ln-w-1]
		if cand.isLoop() != last.isLoop() || cand.count != last.count ||
			(!cand.isLoop() && cand.ev != last.ev) {
			continue
		}
		if nodesEqual(ns[ln-2*w:ln-w], ns[ln-w:]) {
			body := make([]node, w)
			copy(body, ns[ln-2*w:ln-w])
			loop := node{body: body, count: 2}
			t.nodes = append(ns[:ln-2*w], loop)
			return true
		}
	}
	return false
}

// Bytes returns the modeled compressed size of this rank's stream.
func (t *Tracer) Bytes() int {
	return nodesBytes(t.nodes)
}

func nodesBytes(ns []node) int {
	total := 0
	for _, n := range ns {
		if n.isLoop() {
			total += loopNodeOverhead + nodesBytes(n.body)
		} else {
			total += eventBytes + int(n.ev.arrB)
		}
	}
	return total
}

// NumNodes returns the RSD node count (diagnostics).
func (t *Tracer) NumNodes() int { return len(t.nodes) }

// streamKey returns a canonical byte key of the compressed stream for
// the identity merge.
func (t *Tracer) streamKey() string {
	h := fnv.New64a()
	var buf [8]byte
	var walk func(ns []node)
	walk = func(ns []node) {
		for _, n := range ns {
			binary.LittleEndian.PutUint64(buf[:], uint64(n.count))
			h.Write(buf[:])
			if n.isLoop() {
				h.Write([]byte{1})
				walk(n.body)
				h.Write([]byte{2})
			} else {
				binary.LittleEndian.PutUint64(buf[:], uint64(n.ev.fn))
				h.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], uint64(n.ev.a))
				h.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], uint64(n.ev.b))
				h.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], uint64(n.ev.c))
				h.Write(buf[:])
			}
		}
	}
	walk(t.nodes)
	var out [8]byte
	binary.LittleEndian.PutUint64(out[:], h.Sum64())
	return string(out[:])
}

// Stats summarizes a finalized baseline trace.
type Stats struct {
	TraceBytes    int
	UniqueStreams int
	TotalCalls    int64
	Dropped       int64
	MergeNs       int64
}

// Finalize performs the baseline's inter-process compression: ranks
// with bytewise-identical compressed streams are stored once; all
// others are stored in full.
func Finalize(tracers []*Tracer) Stats {
	var st Stats
	t0 := time.Now()
	seen := map[string]bool{}
	for _, tr := range tracers {
		st.TotalCalls += tr.NCalls
		st.Dropped += tr.NDropped
		key := tr.streamKey()
		if seen[key] {
			st.TraceBytes += 4 // rank -> stream reference
			continue
		}
		seen[key] = true
		st.TraceBytes += tr.Bytes() + 16
	}
	st.UniqueStreams = len(seen)
	st.MergeNs = time.Since(t0).Nanoseconds()
	return st
}
