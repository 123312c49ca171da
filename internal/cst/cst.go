// Package cst implements Pilgrim's call signature table (§2.1): the
// per-process mapping from encoded call signatures to grammar terminal
// symbols, with aggregated timing per entry (§3.2), plus the
// inter-process merge that unifies all tables into one global table
// and relabels each rank's terminals (§3.5.1, Figure 3).
package cst

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Table is one process's call signature table.
type Table struct {
	bySig map[string]int32
	sigs  []string // terminal -> signature bytes

	// aggregated timing (default mode, §3.2): per-entry call count and
	// duration sum, so the average duration survives compression.
	count  []int64
	durSum []int64
}

// New returns an empty table.
func New() *Table {
	return &Table{bySig: make(map[string]int32)}
}

// Add returns the terminal for sig, creating a new entry on first
// sight, and accumulates the call's duration into the entry. The hit
// path — by far the common case once an application's signature set
// has been seen — is allocation-free: the map is probed with a
// compiler-elided string conversion, and the key string is only
// materialized for a genuinely new signature.
func (t *Table) Add(sig []byte, duration int64) int32 {
	if term, ok := t.bySig[string(sig)]; ok {
		t.count[term]++
		t.durSum[term] += duration
		return term
	}
	key := string(sig)
	term := int32(len(t.sigs))
	t.bySig[key] = term
	t.sigs = append(t.sigs, key)
	t.count = append(t.count, 1)
	t.durSum = append(t.durSum, duration)
	return term
}

// Clone returns a deep copy of the table. Used by crash-consistent
// snapshots: the copy is immutable while the original keeps growing.
func (t *Table) Clone() *Table {
	c := &Table{
		bySig:  make(map[string]int32, len(t.bySig)),
		sigs:   append([]string(nil), t.sigs...),
		count:  append([]int64(nil), t.count...),
		durSum: append([]int64(nil), t.durSum...),
	}
	for k, v := range t.bySig {
		c.bySig[k] = v
	}
	return c
}

// Lookup returns the terminal for sig without inserting.
func (t *Table) Lookup(sig []byte) (int32, bool) {
	term, ok := t.bySig[string(sig)]
	return term, ok
}

// Sig returns the signature bytes of a terminal.
func (t *Table) Sig(term int32) []byte {
	return []byte(t.sigs[term])
}

// SigString is Sig without the copy: the table's own immutable key.
func (t *Table) SigString(term int32) string { return t.sigs[term] }

// Len returns the number of unique signatures.
func (t *Table) Len() int { return len(t.sigs) }

// Count returns the number of calls recorded against a terminal.
func (t *Table) Count(term int32) int64 { return t.count[term] }

// RawBytes estimates the uncompressed signature-stream size: every
// recorded call replayed as its full signature bytes. The ratio of
// this to the serialized trace size is the compression ratio the
// metrics layer and pilgrim-dump report.
func (t *Table) RawBytes() int64 {
	var n int64
	for term, key := range t.sigs {
		n += t.count[term] * int64(len(key))
	}
	return n
}

// Calls returns the total number of calls recorded (sum of counts).
func (t *Table) Calls() int64 {
	var n int64
	for _, c := range t.count {
		n += c
	}
	return n
}

// AvgDuration returns the mean duration of a terminal's calls.
func (t *Table) AvgDuration(term int32) int64 {
	if t.count[term] == 0 {
		return 0
	}
	return t.durSum[term] / t.count[term]
}

// Merged is the result of the inter-process merge: a single global
// table plus, for each input rank, the dense old-terminal →
// new-terminal relabel slice to apply to its grammar (terminals are
// contiguous, so Relabels[rank][old] = new).
type Merged struct {
	Table    *Table
	Relabels [][]int32
}

// Absorb folds src into t, as in Figure 3: signatures already present
// keep their terminal, new ones get fresh terminals appended in src's
// first-occurrence order, and counts and duration sums add up. It
// returns src's dense relabel slice; t's existing terminals never
// move, so a relabel stays valid however much is absorbed after it.
// src is only read.
//
// Absorbing every rank's table in rank order is the whole
// inter-process CST merge: it equals the paper's log₂P pairwise tree
// entry for entry and relabel for relabel, because a tree node is its
// left child with its right child absorbed, and by induction each
// child is the rank-order fold of its own leaves.
func (t *Table) Absorb(src *Table) []int32 {
	relabel := make([]int32, len(src.sigs))
	for old, key := range src.sigs {
		term, ok := t.bySig[key]
		if !ok {
			term = int32(len(t.sigs))
			t.bySig[key] = term
			t.sigs = append(t.sigs, key)
			t.count = append(t.count, 0)
			t.durSum = append(t.durSum, 0)
		}
		t.count[term] += src.count[old]
		t.durSum[term] += src.durSum[old]
		relabel[old] = term
	}
	return relabel
}

// --- incremental merge -------------------------------------------------------

// Incremental is the inter-process merge fed one rank at a time, in any
// arrival order: it holds each table until every lower rank has
// arrived, then absorbs the contiguous prefix in rank order. The Result
// is therefore the rank-order fold whatever order the tables arrived
// in, and so equal to the paper's log₂P pairwise tree (Absorb).
type Incremental struct {
	global   *Table
	pending  []*Table // by rank: arrived, not yet absorbed
	relabels [][]int32
	next     int // ranks [0, next) are absorbed
}

// NewIncremental starts the merge of n ranks.
func NewIncremental(n int) *Incremental {
	return &Incremental{global: New(), pending: make([]*Table, n), relabels: make([][]int32, n)}
}

// Add feeds one rank's table and absorbs every rank it completes the
// prefix of. The table is only read, and is not retained once
// absorbed. Not safe for concurrent use.
func (inc *Incremental) Add(rank int, t *Table) error {
	if rank < 0 || rank >= len(inc.pending) {
		return fmt.Errorf("cst: incremental merge rank %d out of range [0,%d)", rank, len(inc.pending))
	}
	if rank < inc.next || inc.pending[rank] != nil {
		return fmt.Errorf("cst: incremental merge rank %d added twice", rank)
	}
	inc.pending[rank] = t
	for ; inc.next < len(inc.pending) && inc.pending[inc.next] != nil; inc.next++ {
		inc.relabels[inc.next] = inc.global.Absorb(inc.pending[inc.next])
		inc.pending[inc.next] = nil
	}
	return nil
}

// Result returns the completed merge; it must not be called before
// every rank has been added.
func (inc *Incremental) Result() Merged {
	if inc.next != len(inc.pending) {
		panic("cst: Incremental.Result before all ranks added")
	}
	return Merged{Table: inc.global, Relabels: inc.relabels}
}

// --- serialization -----------------------------------------------------------

// Serialize flattens the table: varint count, then per entry
// (len, bytes, callCount, avgDuration). Storing the average rather
// than the sum keeps entry width independent of run length, matching
// the paper's "we keep the average for calls' duration" (§3.2).
func (t *Table) Serialize() []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(t.sigs)))
	for i, key := range t.sigs {
		buf = binary.AppendUvarint(buf, uint64(len(key)))
		buf = append(buf, key...)
		buf = binary.AppendVarint(buf, t.count[i])
		buf = binary.AppendVarint(buf, t.AvgDuration(int32(i)))
	}
	return buf
}

// Deserialize parses a serialized table.
func Deserialize(data []byte) (*Table, error) {
	t := New()
	pos := 0
	n, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return nil, fmt.Errorf("cst: truncated count")
	}
	pos += k
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("cst: truncated entry %d length", i)
		}
		pos += k
		// Compare in uint64: int(l) may wrap negative and pos+int(l) may
		// overflow, either of which would slip past an int comparison and
		// panic on the slice below.
		if l > uint64(len(data)-pos) {
			return nil, fmt.Errorf("cst: truncated entry %d bytes", i)
		}
		key := string(data[pos : pos+int(l)])
		pos += int(l)
		cnt, k := binary.Varint(data[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("cst: truncated entry %d count", i)
		}
		pos += k
		avg, k := binary.Varint(data[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("cst: truncated entry %d duration", i)
		}
		pos += k
		if _, dup := t.bySig[key]; dup {
			return nil, fmt.Errorf("cst: duplicate signature in entry %d", i)
		}
		t.bySig[key] = int32(len(t.sigs))
		t.sigs = append(t.sigs, key)
		t.count = append(t.count, cnt)
		t.durSum = append(t.durSum, avg*cnt)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("cst: %d trailing bytes", len(data)-pos)
	}
	return t, nil
}

// AppendExact appends the table's exact form to dst: varint count, then
// per entry (len, bytes, callCount, durSum). The on-disk format
// (Serialize) stores the average, which rounds; a snapshot in flight
// to a collector must preserve the sum so the merged global table —
// and therefore the final trace file — is byte-identical to an
// in-process merge. A snapshot encoder lays it straight into its own
// buffer.
func (t *Table) AppendExact(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t.sigs)))
	for i, key := range t.sigs {
		dst = binary.AppendUvarint(dst, uint64(len(key)))
		dst = append(dst, key...)
		dst = binary.AppendVarint(dst, t.count[i])
		dst = binary.AppendVarint(dst, t.durSum[i])
	}
	return dst
}

// ExactSize is the length of the AppendExact form, computed without
// building it: what a caller needs to size a buffer (and write the
// table's length prefix) before AppendExact fills it.
func (t *Table) ExactSize() int {
	n := uvarintLen(uint64(len(t.sigs)))
	for i, key := range t.sigs {
		n += uvarintLen(uint64(len(key))) + len(key) + varintLen(t.count[i]) + varintLen(t.durSum[i])
	}
	return n
}

// uvarintLen and varintLen are the encoded sizes binary.AppendUvarint
// and binary.AppendVarint produce.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
func varintLen(v int64) int   { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// DeserializeExact parses an AppendExact-encoded table. It is the
// collector ingest path's decoder, so allocation is lean: the entry
// count is validated against the bytes present (each entry costs at
// least 3 bytes), then every slice and the signature index are sized
// exactly once — no append-growth churn per arriving snapshot.
func DeserializeExact(data []byte) (*Table, error) {
	t := New()
	pos := 0
	n, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return nil, fmt.Errorf("cst: truncated count")
	}
	pos += k
	if n > uint64(len(data)-pos)/3 {
		return nil, fmt.Errorf("cst: %d entries claimed in %d bytes", n, len(data)-pos)
	}
	if n > 0 {
		t.bySig = make(map[string]int32, n)
		t.sigs = make([]string, 0, n)
		t.count = make([]int64, 0, n)
		t.durSum = make([]int64, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("cst: truncated entry %d length", i)
		}
		pos += k
		// Same uint64 comparison as Deserialize: int(l) may wrap.
		if l > uint64(len(data)-pos) {
			return nil, fmt.Errorf("cst: truncated entry %d bytes", i)
		}
		key := string(data[pos : pos+int(l)])
		pos += int(l)
		cnt, k := binary.Varint(data[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("cst: truncated entry %d count", i)
		}
		pos += k
		sum, k := binary.Varint(data[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("cst: truncated entry %d duration sum", i)
		}
		pos += k
		if _, dup := t.bySig[key]; dup {
			return nil, fmt.Errorf("cst: duplicate signature in entry %d", i)
		}
		t.bySig[key] = int32(len(t.sigs))
		t.sigs = append(t.sigs, key)
		t.count = append(t.count, cnt)
		t.durSum = append(t.durSum, sum)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("cst: %d trailing bytes", len(data)-pos)
	}
	return t, nil
}

// Bytes returns the serialized size, the number the size experiments
// report for the CST section.
func (t *Table) Bytes() int { return len(t.Serialize()) }
