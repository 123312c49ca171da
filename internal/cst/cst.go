// Package cst implements Pilgrim's call signature table (§2.1): the
// per-process mapping from encoded call signatures to grammar terminal
// symbols, with aggregated timing per entry (§3.2), plus the
// inter-process merge that unifies all tables into one global table
// and relabels each rank's terminals (§3.5.1, Figure 3).
package cst

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// Table is one process's call signature table.
//
// A table read from columns (FromColumns) holds its entries' counts and
// durations, and joins their signatures and indexes them only on first
// use: Len, Count, AvgDuration and Calls read the counts, and every
// other method joins first, once, under a sync.Once. Such a table may
// be read from any number of goroutines.
type Table struct {
	bySig map[string]int32 // an Init table's is made by its first entry
	sigs  []string         // terminal -> signature bytes
	keys  []byte           // room for new signatures (Init), or nil

	// aggregated timing (default mode, §3.2): per-entry call count and
	// duration sum, so the average duration survives compression.
	acc []acc

	cols *columns // non-nil for a table read from columns
}

// acc is one entry's call count and duration sum.
type acc struct{ count, durSum int64 }

// columns is where a table read from columns joins its signatures.
type columns struct {
	once sync.Once
	join func(dst []byte, term int32) []byte
}

// New returns an empty table.
func New() *Table {
	return &Table{bySig: make(map[string]int32)}
}

// Slab is the storage a table's first entries' counts and durations
// start in: 8 of them, all a short rank (a cg rank's 7 signatures)
// ever has.
type Slab struct{ acc [8]acc }

// Init makes t an empty table whose first entries' counts and durations
// go in s, which t then owns, and whose first signatures are copied
// into keys' spare capacity while it lasts; past either, t grows as any
// table does. The signature column starts at the slab's length too.
func (t *Table) Init(s *Slab, keys []byte) {
	*t = Table{sigs: make([]string, 0, len(s.acc)), acc: s.acc[:0], keys: keys[len(keys):]}
}

// NewSized returns an empty table with room for n entries.
func NewSized(n int) *Table {
	return &Table{
		bySig: make(map[string]int32, n),
		sigs:  make([]string, 0, n),
		acc:   make([]acc, 0, n),
	}
}

// FromColumns returns the table of len(counts) entries whose entry i
// was called counts[i] times for avgs[i] ns on average, as the file
// form stores it, and whose signature join(dst, i) appends to dst. It
// refuses an entry AppendAverage refuses but for its signature: join
// must give every entry another signature, which the table does not
// check. It calls join only on first use of the signatures, from
// whichever goroutine uses them first.
func FromColumns(counts, avgs []int64, join func(dst []byte, term int32) []byte) (*Table, error) {
	t := &Table{acc: make([]acc, len(counts)), cols: &columns{join: join}}
	for i, c := range counts {
		a, err := entry(i, c, avgs[i], false)
		if err != nil {
			return nil, err
		}
		t.acc[i] = a
	}
	return t, nil
}

// load joins and indexes the signatures of a table read from columns,
// once.
func (t *Table) load() {
	if t.cols != nil {
		t.cols.load(t)
	}
}

// load joins t's signatures into one string, which each entry's
// signature slices, and indexes them, once.
func (c *columns) load(t *Table) {
	c.once.Do(func() {
		var b strings.Builder
		at := make([]int, len(t.acc)+1)
		var buf []byte
		for i := range t.acc {
			buf = c.join(buf[:0], int32(i))
			b.Write(buf)
			at[i+1] = b.Len()
		}
		all := b.String()
		t.sigs, t.bySig = make([]string, len(t.acc)), make(map[string]int32, len(t.acc))
		for i := range t.sigs {
			t.sigs[i] = all[at[i]:at[i+1]]
			t.bySig[t.sigs[i]] = int32(i)
		}
	})
}

// Grow makes room for n more entries, so that adding them rehashes
// nothing.
func (t *Table) Grow(n int) {
	if n <= 0 {
		return
	}
	t.load()
	m := make(map[string]int32, len(t.sigs)+n)
	for term, s := range t.sigs {
		m[s] = int32(term)
	}
	t.bySig = m
	t.sigs = slices.Grow(t.sigs, n)
	t.acc = slices.Grow(t.acc, n)
}

// Add returns the terminal for sig, creating a new entry on first
// sight, and accumulates the call's duration into the entry. The hit
// path — by far the common case once an application's signature set
// has been seen — is allocation-free: the map is probed with a
// compiler-elided string conversion, and the key string is only
// materialized for a genuinely new signature. A table read from
// columns has no index until it joins its signatures: its first Add
// misses, and the miss joins them.
func (t *Table) Add(sig []byte, duration int64) int32 {
	if term, ok := t.bySig[string(sig)]; ok {
		return t.hit(term, duration)
	}
	return t.miss(sig, duration)
}

// hit accumulates a call lasting duration into entry term.
func (t *Table) hit(term int32, duration int64) int32 {
	a := &t.acc[term]
	a.count++
	a.durSum += duration
	return term
}

// miss is Add for a signature t's index lacks.
func (t *Table) miss(sig []byte, duration int64) int32 {
	if t.cols != nil && t.bySig == nil {
		t.load()
		if term, ok := t.bySig[string(sig)]; ok {
			return t.hit(term, duration)
		}
	}
	key := t.intern(sig)
	term := int32(len(t.sigs))
	t.put(key, term)
	t.sigs = append(t.sigs, key)
	t.acc = append(t.acc, acc{1, duration})
	return term
}

// intern returns sig as a string: in keys' spare capacity while it
// lasts, else in an allocation of its own. The bytes it takes from keys
// are never written again.
func (t *Table) intern(sig []byte) string {
	n := len(t.keys)
	if len(sig) == 0 || len(sig) > cap(t.keys)-n {
		return string(sig)
	}
	t.keys = append(t.keys, sig...)
	return unsafe.String(&t.keys[n], len(sig))
}

// put indexes signature key as terminal term, making the index on the
// first put.
func (t *Table) put(key string, term int32) {
	if t.bySig == nil {
		t.bySig = make(map[string]int32)
	}
	t.bySig[key] = term
}

// Clone returns a deep copy of the table. Used by crash-consistent
// snapshots: the copy is immutable while the original keeps growing.
func (t *Table) Clone() *Table {
	t.load()
	c := &Table{
		bySig: make(map[string]int32, len(t.bySig)),
		sigs:  append([]string(nil), t.sigs...),
		acc:   append([]acc(nil), t.acc...),
	}
	for k, v := range t.bySig {
		c.bySig[k] = v
	}
	return c
}

// Lookup returns the terminal for sig without inserting.
func (t *Table) Lookup(sig []byte) (int32, bool) {
	t.load()
	term, ok := t.bySig[string(sig)]
	return term, ok
}

// Sig returns the signature bytes of a terminal.
func (t *Table) Sig(term int32) []byte {
	return []byte(t.SigString(term))
}

// SigString is Sig without the copy: the table's own immutable key.
func (t *Table) SigString(term int32) string {
	t.load()
	return t.sigs[term]
}

// Len returns the number of unique signatures.
func (t *Table) Len() int { return len(t.acc) }

// Count returns the number of calls recorded against a terminal.
func (t *Table) Count(term int32) int64 { return t.acc[term].count }

// RawBytes estimates the uncompressed signature-stream size: every
// recorded call replayed as its full signature bytes. The ratio of
// this to the serialized trace size is the compression ratio the
// metrics layer and pilgrim-dump report.
func (t *Table) RawBytes() int64 {
	t.load()
	var n int64
	for term, key := range t.sigs {
		n += t.acc[term].count * int64(len(key))
	}
	return n
}

// Calls returns the total number of calls recorded (sum of counts).
func (t *Table) Calls() int64 {
	var n int64
	for _, a := range t.acc {
		n += a.count
	}
	return n
}

// AvgDuration returns the mean duration of a terminal's calls.
func (t *Table) AvgDuration(term int32) int64 { return t.acc[term].avg() }

// avg is the mean duration of the entry's calls.
func (a acc) avg() int64 {
	if a.count == 0 {
		return 0
	}
	return a.durSum / a.count
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
// src is only read. A count or duration sum that would pass an int64
// fails the fold, leaving t partly absorbed: the caller drops it.
//
// Absorbing every rank's table in rank order is the whole
// inter-process CST merge: it equals the paper's log₂P pairwise tree
// entry for entry and relabel for relabel, because a tree node is its
// left child with its right child absorbed, and by induction each
// child is the rank-order fold of its own leaves.
func (t *Table) Absorb(src *Table) ([]int32, error) {
	t.load()
	src.load()
	relabel := make([]int32, len(src.sigs))
	for old, key := range src.sigs {
		term, ok := t.bySig[key]
		if !ok {
			term = int32(len(t.sigs))
			t.put(key, term)
			t.sigs = append(t.sigs, key)
			t.acc = append(t.acc, acc{})
		}
		a, s := &t.acc[term], src.acc[old]
		c, okc := add(a.count, s.count)
		d, okd := add(a.durSum, s.durSum)
		if !okc || !okd {
			return nil, fmt.Errorf("cst: entry %d: %d calls lasting %d ns overflow the merged entry's", old, s.count, s.durSum)
		}
		a.count, a.durSum = c, d
		relabel[old] = term
	}
	return relabel, nil
}

// add is a+b, and whether that is an int64.
func add(a, b int64) (int64, bool) {
	s := a + b
	return s, (s > a) == (b > 0)
}

// Sums admits the tables of one merge before it runs: it keeps the
// calls and the absolute duration sums of every table admitted so far,
// in total, and Admit refuses a table that would take either total
// past math.MaxInt64. Every count and duration sum of the merge, and
// every partial sum on the way, is bounded by those totals, so
// absorbing the admitted tables in any order never overflows. The
// bound refuses only a merge of 2⁶³ calls, or of calls lasting 2⁶³ ns
// (292 years) summed over every rank; keeping the sums per signature
// instead, the exact bound, cost a 1 024-rank collector run 12 % of its
// finalize. The zero value has admitted nothing.
type Sums struct{ calls, ns uint64 }

// Admit adds t's calls and absolute duration sums to s, or, if either
// total would pass math.MaxInt64, leaves s as it was and fails.
func (s *Sums) Admit(t *Table) error {
	calls, ns := s.calls, s.ns
	for i, a := range t.acc {
		c, d := uint64(a.count), absInt(a.durSum)
		if c > math.MaxInt64-calls || d > math.MaxInt64-ns {
			return fmt.Errorf("cst: entry %d: %d calls lasting %d ns take the merge past an int64", i, a.count, a.durSum)
		}
		calls, ns = calls+c, ns+d
	}
	s.calls, s.ns = calls, ns
	return nil
}

// absInt is |v|, as a uint64 so that |math.MinInt64| is one.
func absInt(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
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
// absorbed. It fails when a fold would overflow (Absorb), after which
// the merge is dropped. Not safe for concurrent use.
func (inc *Incremental) Add(rank int, t *Table) error {
	if rank < 0 || rank >= len(inc.pending) {
		return fmt.Errorf("cst: incremental merge rank %d out of range [0,%d)", rank, len(inc.pending))
	}
	if rank < inc.next || inc.pending[rank] != nil {
		return fmt.Errorf("cst: incremental merge rank %d added twice", rank)
	}
	inc.pending[rank] = t
	for ; inc.next < len(inc.pending) && inc.pending[inc.next] != nil; inc.next++ {
		relabel, err := inc.global.Absorb(inc.pending[inc.next])
		if err != nil {
			return fmt.Errorf("cst: incremental merge rank %d: %w", inc.next, err)
		}
		inc.relabels[inc.next] = relabel
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

// A table has two stored forms, one layout: a varint count, then per
// entry (len, bytes, callCount, duration). The file form (Serialize)
// stores each entry's average duration, which keeps entry width
// independent of run length, matching the paper's "we keep the average
// for calls' duration" (§3.2). The exact form (AppendExact) stores the
// duration sum: a snapshot in flight to a collector must keep it, so
// the merged global table, and so the trace file, is byte-identical to
// an in-process merge. Each form is written by appendForm and read by
// parse.

// Serialize returns the table's file form.
func (t *Table) Serialize() []byte { return t.appendForm(nil, false) }

// Deserialize parses a table's file form.
func Deserialize(data []byte) (*Table, error) { return parse(data, false) }

// AppendExact appends the table's exact form to dst. A snapshot encoder
// lays it straight into its own buffer.
func (t *Table) AppendExact(dst []byte) []byte { return t.appendForm(dst, true) }

// DeserializeExact parses a table's exact form.
func DeserializeExact(data []byte) (*Table, error) { return parse(data, true) }

// appendForm appends the table's exact form, or else its file form.
func (t *Table) appendForm(dst []byte, exact bool) []byte {
	t.load()
	dst = binary.AppendUvarint(dst, uint64(len(t.sigs)))
	for i, key := range t.sigs {
		a := t.acc[i]
		dst = binary.AppendUvarint(dst, uint64(len(key)))
		dst = append(dst, key...)
		dst = binary.AppendVarint(dst, a.count)
		if exact {
			dst = binary.AppendVarint(dst, a.durSum)
		} else {
			dst = binary.AppendVarint(dst, a.avg())
		}
	}
	return dst
}

// ExactSize is the length of the exact form, computed without building
// it: what a caller needs to size a buffer (and write the table's
// length prefix) before AppendExact fills it.
func (t *Table) ExactSize() int {
	t.load()
	n := uvarintLen(uint64(len(t.sigs)))
	for i, key := range t.sigs {
		n += uvarintLen(uint64(len(key))) + len(key) + varintLen(t.acc[i].count) + varintLen(t.acc[i].durSum)
	}
	return n
}

// uvarintLen and varintLen are the encoded sizes binary.AppendUvarint
// and binary.AppendVarint produce.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
func varintLen(v int64) int   { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// parse reads a table's exact form, or else its file form. It sits on
// the trace reader's and the collector's ingest paths, so it refuses
// what no writer writes (see appendEntry) and allocates once: the
// entry count is checked against the bytes present (an entry takes at
// least 3), then every slice and the signature index are sized to it.
func parse(data []byte, exact bool) (*Table, error) {
	n, pos := binary.Uvarint(data)
	if pos <= 0 {
		return nil, fmt.Errorf("cst: truncated count")
	}
	if n > uint64(len(data)-pos)/3 {
		return nil, fmt.Errorf("cst: %d entries claimed in %d bytes", n, len(data)-pos)
	}
	t := NewSized(int(n))
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
		dur, k := binary.Varint(data[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("cst: truncated entry %d duration", i)
		}
		pos += k
		if err := t.appendEntry(key, cnt, dur, exact); err != nil {
			return nil, err
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("cst: %d trailing bytes", len(data)-pos)
	}
	return t, nil
}

// AppendAverage appends an entry as the file form stores it: signature
// key, called count times for avg ns each on average. It refuses what
// Deserialize refuses of an entry (see appendEntry).
func (t *Table) AppendAverage(key string, count, avg int64) error {
	return t.appendEntry(key, count, avg, false)
}

// appendEntry appends entry key, called cnt times, dur its duration sum
// in the exact form, else its average. It refuses what no writer
// writes: what entry refuses, and a signature already in t.
func (t *Table) appendEntry(key string, cnt, dur int64, exact bool) error {
	i := len(t.sigs)
	a, err := entry(i, cnt, dur, exact)
	if err != nil {
		return err
	}
	if _, dup := t.bySig[key]; dup {
		return fmt.Errorf("cst: duplicate signature in entry %d", i)
	}
	t.put(key, int32(i))
	t.sigs = append(t.sigs, key)
	t.acc = append(t.acc, a)
	return nil
}

// entry is entry i's count and duration sum, called cnt times, dur its
// duration sum in the exact form, else its average. It refuses what no
// writer writes: fewer than one call, and in the file form a duration
// sum, average × count, past an int64.
func entry(i int, cnt, dur int64, exact bool) (acc, error) {
	switch {
	case cnt < 1:
		return acc{}, fmt.Errorf("cst: entry %d: %d calls", i, cnt)
	case exact:
	case dur > math.MaxInt64/cnt || dur < math.MinInt64/cnt:
		return acc{}, fmt.Errorf("cst: entry %d: %d calls averaging %d", i, cnt, dur)
	default:
		dur *= cnt
	}
	return acc{cnt, dur}, nil
}

// Bytes returns the size of the file form, without building it: the
// number the size experiments report for the CST section.
func (t *Table) Bytes() int {
	t.load()
	n := uvarintLen(uint64(len(t.sigs)))
	for i, key := range t.sigs {
		n += uvarintLen(uint64(len(key))) + len(key) + varintLen(t.acc[i].count) + varintLen(t.acc[i].avg())
	}
	return n
}
