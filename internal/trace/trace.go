// Package trace defines Pilgrim's on-disk trace format: one file for
// the whole job, holding the globally merged call signature table, the
// set of unique per-rank grammars with a rank → grammar index, and
// optionally the per-rank timing grammars of the non-aggregated mode
// with their indices. Each index is stored as a column, raw or
// run-length, of its ints or of their differences at a stride, or in
// the older plain form (a Sequitur grammar for the rank map), whichever
// is smaller.
//
// Internally everything is arrays of integers (as in the paper), so
// identity checks during merging are flat comparisons, and the file is
// a straightforward binary dump with varint framing.
package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/internal/timing"
)

// Timing modes.
const (
	TimingAggregated = 0 // mean duration per CST entry only (default)
	TimingLossy      = 1 // per-call duration+interval grammars, error < base-1
)

// The magic is the format version, and the magics order as their
// versions. The writer stores a body — every section after the magic
// and the header — raw under magicIndex, or, from minDeflatedBody up
// when that takes fewer bytes, as one deflate stream (bodyDeflated)
// under magicIndexBody, whose raw body is a magicIndex body. The older
// magics are read only: under magic the calls are a grammar set, under
// magicShapes they may be stored by shape (flagShapes), under magicPack
// a pack is of today's alphabet (flagPacked), and under magicDeflate
// timing sets may be stored deflated (flagDeflated); only from
// magicTemplates on does the CST section have a selector, from
// magicBody on may the body be deflated (a magicBody body is a
// magicTemplates body), and from magicIndex on does each index section
// have one (index.go).
const (
	magic          = "PILGRIM1"
	magicShapes    = "PILGRIM2"
	magicPack      = "PILGRIM3"
	magicDeflate   = "PILGRIM4"
	magicTemplates = "PILGRIM5"
	magicBody      = "PILGRIM6"
	magicIndex     = "PILGRIM7"
	magicIndexBody = "PILGRIM8"
)

// Grammar set selectors. flagHalves only under magic and magicShapes,
// flagPacked under every later magic, flagShapes, in the call section,
// under every magic but magic, and flagDeflated, in a timing section,
// only under magicDeflate and magicTemplates. The writer stores a set
// raw or by flagPacked, and the calls also by flagShapes.
const (
	flagRaw      = 0
	flagHalves   = 1 // sequitur.UnpackHalves reads the pack
	flagShapes   = 2
	flagPacked   = 3 // sequitur.Unpack reads the pack
	flagDeflated = 4 // the raw set's length, then a compress/flate stream of it
)

// deflateLevel is the compress/flate level of a deflated body: on
// irregular's 125 KB of timing sets level 1 is 8 % larger, and level 6
// takes 1.8 times as long for 3 % less.
const deflateLevel = 4

// minDeflatedBody is the smallest raw body the writer deflates. Below
// it deflating costs more finalize time than its bytes are worth: with
// no floor and one level-4 flate.Writer reused for every body (held
// under a mutex, Reset per body), a stencil2d 16×2000 trace of
// 1.2 KB shrank to 461 B, but its finalize rose in 4 of 4 alternating
// pairs, 0.370 / 0.376 / 0.314 / 0.298 → 0.488 / 0.441 / 0.411 /
// 0.514 ms (+17 to +72 %). A sync.Pool would not keep the writer
// across the collections a run forces between its stages.
const minDeflatedBody = 4 << 10

// version is the format version a magic names: "PILGRIM" and then the
// version in decimal, without leading zeros; 0 for anything else. The
// reader orders magics by version, never as strings, under which
// "PILGRIM10" sorts before "PILGRIM8".
func version(m string) int {
	d, ok := strings.CutPrefix(m, "PILGRIM")
	v, err := strconv.Atoi(d)
	if !ok || err != nil || v < 1 || d != strconv.Itoa(v) {
		return 0
	}
	return v
}

// halves reports whether a file of version v holds packs of the older
// alphabet.
func halves(v int) bool { return v < version(magicPack) }

// deflatedSets reports whether a file of version v may hold a timing
// set stored deflated.
func deflatedSets(v int) bool { return v == version(magicDeflate) || v == version(magicTemplates) }

// bodyMagic reports whether a file of magic m stores its body deflated.
func bodyMagic(m string) bool {
	v := version(m)
	return v == version(magicBody) || v == version(magicIndexBody)
}

// TimingBaseError rejects a lossy-timing base that is not finite and
// greater than 1: Read returns it for such a file, and tracing options
// carrying one are refused before a run starts.
type TimingBaseError struct{ Base float64 }

func (e *TimingBaseError) Error() string {
	return fmt.Sprintf("lossy timing base %v is not finite and > 1", e.Base)
}

// CheckTiming refuses a timing header no trace can carry: the mode is
// TimingAggregated or TimingLossy, and a lossy base passes
// timing.ValidBase (a TimingBaseError). Read checks a file's header
// with it; tracing options, a collector hello and a journal manifest
// check theirs with base 0 taken as DefaultBase's.
func CheckTiming(mode uint8, base float64) error {
	switch {
	case mode != TimingAggregated && mode != TimingLossy:
		return fmt.Errorf("timing mode %d is neither aggregated (%d) nor lossy (%d)", mode, TimingAggregated, TimingLossy)
	case mode == TimingLossy && !timing.ValidBase(base):
		return &TimingBaseError{Base: base}
	}
	return nil
}

// DefaultBase is the lossy-timing base a run that names base traces
// with: base itself, or 1.2 (20 %, as the paper evaluates) for 0.
func DefaultBase(base float64) float64 {
	if base == 0 {
		return 1.2
	}
	return base
}

// File is a complete compressed trace.
//
// A File is built by filling its exported fields (finalize, Read) and
// is read-only from the first call of a read method — GrammarIndex,
// Terms, DecodedSig, and everything above them (core.DecodeRank,
// analysis, replay, ...). Those methods resolve what is shared by all
// ranks once per File and keep it: the rank → grammar index, and each
// CST entry's decoded Entry. They may be called from any number of
// goroutines. What they return is shared with every other caller and
// must not be modified: the slice from GrammarIndex, and each Entry
// (its Args, including nested Arr slices, too). Changing
// RankMap, Grammars or CST after a read method has run is not seen.
// Likewise the first of WriteTo, SizeBytes, SectionSizes, BodyStorage
// and CSTStorage lays a File built in memory out once, and all of them
// read that stored form; a File Read gives stores the bytes it was read
// from. Because it carries that state a File must not be copied by
// value.
type File struct {
	NumRanks   int
	TimingMode uint8
	TimingBase float64

	CST *cst.Table

	// CSTTemplater, if non-nil, is CST templated entry by entry as it
	// grew (the finalize walk's), which the writer takes the templated
	// section from when it split exactly CST's entries, instead of
	// templating the table from scratch.
	CSTTemplater *CSTTemplater

	// Grammars holds the unique per-rank grammars after the identity
	// dedup of §3.5.2; RankMap holds, per rank, the index of its grammar
	// in Grammars.
	Grammars []sequitur.Serialized
	RankMap  []int32

	// Shape, if non-nil, holds per grammar -1 if it is the first of its
	// shape (its representative), else that representative's index; nil
	// means all are representatives (DESIGN §4d).
	Shape []int32

	// ShapeVecs, if non-nil, holds per grammar the vector
	// sequitur.Serialized.Shape gives it, which the writer then checks
	// against its shape instead of shaping the grammar again.
	ShapeVecs [][]int32

	// Packed, if non-nil, is the final Sequitur pass over the
	// representatives (§3.5.2): the serialized form stores it instead of
	// them when smaller. Readers repopulate Grammars from it.
	Packed sequitur.Serialized

	// Lossy timing (optional): unique timing grammars plus per-rank
	// indices.
	DurGrammars []sequitur.Serialized
	DurIndex    []int32
	IntGrammars []sequitur.Serialized
	IntIndex    []int32

	// Salvage, if non-nil, marks this as a partial trace recovered from
	// a failed run: it names the failure and the ranks whose streams
	// are truncated. Written as a trailing optional section, so normal
	// traces are byte-identical to the pre-salvage format and old
	// readers simply ignore the tail.
	Salvage *SalvageInfo

	// The stored form: laid out by the first write of a File built in
	// memory, or kept by Read as it read it. Once it is set, changing
	// the File is not seen.
	formOnce sync.Once
	stored   form

	// The unique templates of a CST stored raw, counted on the first
	// CSTStorage.
	tmplOnce  sync.Once
	templates int

	// The templated CST section Read found, if any, which DecodedSig
	// decodes by template.
	tmpl *cstTemplates

	// Read-path memo (see the type comment): the rank map's check, and
	// one lazily decoded slot per CST entry.
	rankOnce sync.Once
	rankErr  error
	sigOnce  sync.Once
	sigs     []atomic.Pointer[decodedSig]
}

// Entry is one CST entry decoded: its call, the mean duration of the
// calls that made it, and its terminal. A File holds one Entry per CST
// entry, which every call naming that entry shares.
type Entry struct {
	sig.Decoded
	AvgDuration int64 // aggregated-mode mean duration for the signature
	Term        int32 // the entry's CST terminal
}

// decodedSig is one CST entry's decode result, error included, so a
// malformed signature fails the same way on every call and rank.
type decodedSig struct {
	e   Entry
	err error
}

// SalvageInfo tags a partial trace produced by a salvage finalize: the
// caller names the failure, and the finalize walk (core.Walk.Finish)
// fills in Calls.
type SalvageInfo struct {
	// FailedRanks lists the ranks that crashed or aborted; their call
	// streams end at the failure point. Ranks not listed survived to
	// the halt and their streams are complete up to it.
	FailedRanks []int32
	// Reason is a one-line description of the failure that halted the
	// run (crash, abort, or deadlock diagnosis).
	Reason string
	// Calls holds every rank's recorded call count at salvage time.
	Calls []int64
}

// GrammarIndex returns, per rank, the index of its grammar in
// Grammars: the rank map, validated once per File. The returned slice
// is shared and must not be modified.
func (f *File) GrammarIndex() ([]int32, error) {
	f.rankOnce.Do(func() {
		f.rankErr = checkIndex(indexNames[rankMapIndex], f.RankMap, f.NumRanks, len(f.Grammars))
	})
	if f.rankErr != nil {
		return nil, f.rankErr
	}
	return f.RankMap, nil
}

// maxCallsPerRank bounds in-memory expansion of one rank's call
// stream (a corrupted trace could otherwise claim astronomically large
// run-length exponents and exhaust memory).
const maxCallsPerRank = 1 << 28

// Terms expands rank r's grammar into its terminal sequence. The
// expansion is the caller's own: it is O(calls) and not kept.
func (f *File) Terms(rank int) ([]int32, error) {
	return ExpandRank(f, rank, func(_ int64, term int32) (int32, error) { return term, nil })
}

// ExpandRank expands rank r's grammar into one T per call:
// sequitur.ExpandEach, which calls leaf(i, term) for call i of CST
// entry term once per terminal of a rule body, and copies the rest.
// It fails with leaf's first error, and for a rank out of range, a
// rank map that does not check, or a stream past maxCallsPerRank.
func ExpandRank[T any](f *File, rank int, leaf func(call int64, term int32) (T, error)) ([]T, error) {
	if rank < 0 || rank >= f.NumRanks {
		return nil, fmt.Errorf("trace: rank %d out of range", rank)
	}
	idx, err := f.GrammarIndex()
	if err != nil {
		return nil, err
	}
	out, n, err := sequitur.ExpandEach(f.Grammars[idx[rank]], maxCallsPerRank, leaf)
	if n > maxCallsPerRank {
		return nil, fmt.Errorf("trace: rank %d stream of %d calls exceeds the in-memory cap", rank, n)
	}
	return out, err
}

// DecodedSig returns CST entry term decoded: sig.Decode of its
// signature, with the entry's mean duration and term itself. Each
// entry is decoded once per File, on first reference, from its
// template, which Read decoded when it walked it, filled in with the
// entry's lifted values (sig.Pattern); a CST stored raw, or built in
// memory, has one template per entry, its whole signature, which takes
// none. The result — or the decode error — is kept: every caller naming
// term gets the same *Entry, which must not be modified.
func (f *File) DecodedSig(term int32) (*Entry, error) {
	f.sigOnce.Do(func() {
		f.sigs = make([]atomic.Pointer[decodedSig], f.CST.Len())
		if t := f.tmpl; t != nil && (t.table != f.CST || len(t.tid) != f.CST.Len()) {
			f.tmpl = nil // the CST was changed after Read: its templates are not its own
		}
	})
	if term < 0 || int(term) >= len(f.sigs) {
		return nil, fmt.Errorf("trace: no CST entry %d (table holds %d)", term, len(f.sigs))
	}
	slot := &f.sigs[term]
	e := slot.Load()
	if e == nil {
		e = new(decodedSig)
		var p sig.Pattern
		var row []int64
		if t := f.tmpl; t != nil {
			p, row = t.tmpls[t.tid[term]].Pattern(), t.row(int(term))
		} else {
			p, e.err = sig.DecodeWhole(f.CST.SigString(term))
		}
		if e.err == nil {
			e.e.Decoded, e.err = p.Fill(row)
			e.e.AvgDuration, e.e.Term = f.CST.AvgDuration(term), term
		}
		e = publish(slot, e)
	}
	if e.err != nil {
		return nil, e.err
	}
	return &e.e, nil
}

// publish stores e in slot unless a racing first reference has stored
// its own, and returns the one stored: racing first references decode
// alike, and the first to publish wins, so all callers share one
// result.
func publish[T any](slot *atomic.Pointer[T], e *T) *T {
	if !slot.CompareAndSwap(nil, e) {
		return slot.Load()
	}
	return e
}

// --- serialization -----------------------------------------------------------

// The writer builds the body in memory, so its writes do not fail.

func writeUvarint(w *bytes.Buffer, x uint64) {
	var tmp [binary.MaxVarintLen64]byte
	w.Write(tmp[:binary.PutUvarint(tmp[:], x)])
}

func writeBytes(w *bytes.Buffer, b []byte) {
	writeUvarint(w, uint64(len(b)))
	w.Write(b)
}

// writeInts writes a grammar or an index: vs as sequitur.AppendInts
// lays them out, behind their length.
func writeInts(w *bytes.Buffer, vs []int32) {
	n := sequitur.IntsLen(vs)
	writeUvarint(w, uint64(n))
	w.Grow(n)
	w.Write(sequitur.AppendInts(w.AvailableBuffer(), vs))
}

func writeGrammarSet(w *bytes.Buffer, gs []sequitur.Serialized) {
	writeUvarint(w, uint64(len(gs)))
	for _, g := range gs {
		writeInts(w, g)
	}
}

// form is how a trace is stored: data, the bytes WriteTo writes, whose
// body starts at at and takes raw bytes raw; ends, the offsets in the
// raw body at which the CST section, the call section with the rank
// map, and each timing set with its index end; and how the CST and the
// indices are stored. A File WriteTo refuses has only err, why.
type form struct {
	data    []byte
	at, raw int
	ends    [4]int
	cst     CSTStorage
	index   [3]IndexStorage
	err     error
}

// form returns f's stored form, laying a File built in memory out on
// the first call (see layout); Read sets a read File's.
func (f *File) form() *form {
	f.formOnce.Do(func() { f.stored = f.layout() })
	return &f.stored
}

// WriteTo writes the trace's stored form. It fails without writing
// when Shape does not describe Grammars, or when the rank map names a
// negative grammar, which no grammar over it can hold.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	s := f.form()
	if s.err != nil {
		return 0, s.err
	}
	n, err := w.Write(s.data)
	return int64(n), err
}

// layout lays out a File built in memory: the magic, the header (the
// rank count, the timing mode and the timing base), then the body raw
// under magicIndex, or, if it takes at least minDeflatedBody bytes and
// the stream fewer, under magicIndexBody as its selector, its raw
// length and its compress/flate stream.
func (f *File) layout() form {
	if r := slices.IndexFunc(f.RankMap, func(i int32) bool { return i < 0 }); r >= 0 {
		return form{err: fmt.Errorf("trace: rank map names grammar %d for rank %d", f.RankMap[r], r)}
	}
	sec, err := f.shaped()
	if err != nil {
		return form{err: err}
	}
	return f.lay(sec)
}

// lay is layout with the call section sec (see writeCalls).
func (f *File) lay(sec *shapedSection) form {
	w := bytes.NewBuffer(f.header(magicIndex))
	s := form{at: w.Len()}
	f.writeBody(w, sec, &s)
	s.data = w.Bytes()
	body := s.data[s.at:]
	if s.raw = len(body); s.raw < minDeflatedBody || s.raw > maxDeflatedRaw {
		return s
	}
	z := deflateBody(body)
	d := append(f.header(magicIndexBody), bodyDeflated)
	d = binary.AppendUvarint(d, uint64(s.raw))
	if d = binary.AppendUvarint(d, uint64(len(z))); len(d)+len(z) < len(s.data) {
		s.data = append(d, z...)
	}
	return s
}

// header is the magic m, then the rank count, the timing mode and the
// timing base.
func (f *File) header(m string) []byte {
	head := binary.AppendUvarint([]byte(m), uint64(f.NumRanks))
	head = append(head, f.TimingMode)
	return binary.AppendUvarint(head, math.Float64bits(f.TimingBase))
}

// calls is the grammar set f's call section stores: the
// representatives if it is stored by shape (sec non-nil), else every
// grammar.
func (f *File) calls(sec *shapedSection) []sequitur.Serialized {
	if sec != nil {
		return sec.reps
	}
	return f.Grammars
}

// writeBody appends the body to w: the CST section (see writeCST), the
// call section (see writeCalls) with the rank map, the timing sets raw
// with their indices (see writeIndex), and the salvage section if there
// is one. It records in s the offsets from the body's start at which
// the first four end, and how the CST and the indices are stored. The
// sections after the CST's are laid out first, as the CST section may
// still be being built beside the layout (see CSTTemplater).
func (f *File) writeBody(w *bytes.Buffer, sec *shapedSection, s *form) {
	var rest bytes.Buffer
	f.writeCalls(&rest, sec, storedPack(f.calls(sec), f.Packed))
	s.index[rankMapIndex] = writeIndex(&rest, rankMapIndex, f.RankMap, f.NumRanks, len(f.Grammars))
	s.ends[1] = rest.Len()
	writePackable(&rest, f.DurGrammars, nil)
	s.index[durIndex] = writeIndex(&rest, durIndex, f.DurIndex, f.NumRanks, len(f.DurGrammars))
	s.ends[2] = rest.Len()
	writePackable(&rest, f.IntGrammars, nil)
	s.index[intIndex] = writeIndex(&rest, intIndex, f.IntIndex, f.NumRanks, len(f.IntGrammars))
	s.ends[3] = rest.Len()
	if f.Salvage != nil {
		rest.WriteByte(1)
		writeBytes(&rest, f.Salvage.serialize())
	}
	at := w.Len()
	s.cst = f.writeCST(w)
	s.ends[0] = w.Len() - at
	for i := 1; i < len(s.ends); i++ {
		s.ends[i] += s.ends[0]
	}
	w.Write(rest.Bytes())
}

func (s *SalvageInfo) serialize() []byte {
	buf := sequitur.AppendInts(nil, s.FailedRanks)
	buf = binary.AppendUvarint(buf, uint64(len(s.Reason)))
	buf = append(buf, s.Reason...)
	return sequitur.AppendInts(buf, s.Calls)
}

func deserializeSalvage(data []byte) (*SalvageInfo, error) {
	s := &SalvageInfo{}
	ranks, k, err := sequitur.ReadInts[int32](data)
	if err != nil {
		return nil, fmt.Errorf("trace: salvage failed ranks: %w", err)
	}
	s.FailedRanks, data = ranks, data[k:]
	l, k := binary.Uvarint(data)
	if k <= 0 || l > uint64(len(data)-k) {
		return nil, fmt.Errorf("trace: truncated salvage reason")
	}
	s.Reason, data = string(data[k:k+int(l)]), data[k+int(l):]
	if s.Calls, k, err = sequitur.ReadInts[int64](data); err != nil {
		return nil, fmt.Errorf("trace: salvage call counts: %w", err)
	}
	if k != len(data) {
		return nil, fmt.Errorf("trace: %d trailing salvage bytes", len(data)-k)
	}
	return s, nil
}

// storedPack returns pack if the file stores it instead of the grammar
// set gs, else nil: it does when the pack takes fewer bytes.
func storedPack(gs []sequitur.Serialized, pack sequitur.Serialized) sequitur.Serialized {
	if pack != nil && intsLen(pack) < setLen(gs) {
		return pack
	}
	return nil
}

// setLen is the number of bytes writeGrammarSet writes for gs.
func setLen(gs []sequitur.Serialized) int {
	n := uvarintLen(uint64(len(gs)))
	for _, g := range gs {
		n += intsLen(g)
	}
	return n
}

// intsLen is the number of bytes writeInts writes for vs.
func intsLen(vs []int32) int { return framedLen(sequitur.IntsLen(vs)) }

// uvarintLen is len(binary.AppendUvarint(nil, u)).
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// varintLen is len(binary.AppendVarint(nil, v)).
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// writePackable writes a grammar set behind a selector byte: as pack,
// under flagPacked, if pack is non-nil, else raw.
func writePackable(w *bytes.Buffer, gs []sequitur.Serialized, pack sequitur.Serialized) {
	if pack != nil {
		w.WriteByte(flagPacked)
		writeInts(w, pack)
		return
	}
	w.WriteByte(flagRaw)
	writeGrammarSet(w, gs)
}

// readPackable mirrors writePackable. max bounds the grammar count of
// an unpacked set (see grammarSet).
func (br byteReader) readPackable(max int) ([]sequitur.Serialized, sequitur.Serialized, error) {
	flag, err := br.r.ReadByte()
	if err != nil {
		return nil, nil, err
	}
	return br.packable(flag, max)
}

// packable reads the grammar set that follows selector flag: raw, or
// a pack of the one alphabet the file's magic allows.
func (br byteReader) packable(flag byte, max int) ([]sequitur.Serialized, sequitur.Serialized, error) {
	switch {
	case flag == flagRaw:
		gs, err := br.grammarSet(max)
		return gs, nil, err
	case flag == flagHalves && halves(br.v), flag == flagPacked && !halves(br.v):
		pack, err := br.grammar()
		if err != nil {
			return nil, nil, err
		}
		gs, err := unpackBounded(pack, max, flag)
		if err != nil {
			return nil, nil, err
		}
		return gs, pack, nil
	case flag == flagHalves, flag == flagPacked:
		return nil, nil, fmt.Errorf("trace: grammar pack selector %d in a %s file", flag, br.magic())
	}
	return nil, nil, fmt.Errorf("trace: unknown grammar set selector %d", flag)
}

// maxPackInts bounds the grammar ints a pack may unpack to, and a shape
// section may rebuild. A structurally valid pack can still encode an
// exponential expansion: run-length exponents nest multiplicatively.
const maxPackInts = 1 << 27

// unpackBounded is sequitur.Unpack, or UnpackHalves for flagHalves,
// with the expansion and set-size caps every untrusted read path
// needs. Before the walk, the pack's symbols are capped at what
// maxPackInts ints can take: three each (an escape and two halves), or
// two in the older alphabet.
func unpackBounded(pack sequitur.Serialized, max int, flag byte) ([]sequitur.Serialized, error) {
	unpack, perInt := sequitur.Unpack, int64(3)
	if flag == flagHalves {
		unpack, perInt = sequitur.UnpackHalves, 2
	}
	if n := pack.InputLen(); n > perInt*maxPackInts {
		return nil, fmt.Errorf("trace: grammar pack expands to %d symbols", n)
	}
	gs, err := unpack(pack, maxPackInts)
	if err != nil {
		return nil, err
	}
	if len(gs) > max {
		return nil, fmt.Errorf("trace: packed grammar set of %d exceeds %d ranks", len(gs), max)
	}
	return gs, nil
}

// SizeBytes returns the serialized size of the trace — the "trace file
// size" every figure reports — or -1 for a File WriteTo refuses.
func (f *File) SizeBytes() int {
	s := f.form()
	if s.err != nil {
		return -1
	}
	return len(s.data)
}

// SectionSizes reports the bytes the main sections take in the body,
// raw, for the overhead and Figure 10 style breakdowns: the CST
// section, the call section with the rank map, and each timing set with
// its index. With a salvage section they are the raw body. A File
// WriteTo refuses reports zeros.
func (f *File) SectionSizes() (cstB, cfgB, durB, intB int) {
	e := f.form().ends
	return e[0], e[1] - e[0], e[2] - e[1], e[3] - e[2]
}

// UncompressedEstimate returns the approximate size of the raw
// (uncompressed) signature stream this trace represents: every call
// replayed as its full signature bytes, summed over all ranks. The
// global CST carries per-entry call counts, so the estimate survives
// compression and is available to any reader of the file.
func (f *File) UncompressedEstimate() int64 {
	if f.CST == nil {
		return 0
	}
	return f.CST.RawBytes()
}

// --- reading -----------------------------------------------------------------

type byteReader struct {
	r *bytes.Reader
	v int // the file's format version, which decides the selectors it may hold
}

// from reports whether the file's version is m's or later.
func (br byteReader) from(m string) bool { return br.v >= version(m) }

// magic is the file's magic, for messages.
func (br byteReader) magic() string { return fmt.Sprintf("PILGRIM%d", br.v) }

// off is the offset br has read to.
func (br byteReader) off() int { return int(br.r.Size()) - br.r.Len() }

func (br byteReader) bytes() ([]byte, error) {
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		return nil, err
	}
	// Never trust a length from the wire: a corrupt huge length fails
	// here instead of allocating it.
	if n > uint64(br.r.Len()) {
		return nil, io.ErrUnexpectedEOF
	}
	b := make([]byte, n)
	br.r.Read(b) // n is at most Len, so it fills b
	return b, nil
}

func (br byteReader) grammar() (sequitur.Serialized, error) {
	g, err := br.ints()
	if err != nil {
		return nil, err
	}
	// Validate also rejects the empty grammar, which no writer produces
	// and every expansion below would index out of range on.
	if err := sequitur.Serialized(g).Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func (br byteReader) grammarSet(max int) ([]sequitur.Serialized, error) {
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		return nil, err
	}
	// Grammars are deduped per rank, so a set can never exceed the rank
	// count; without the cap a corrupt count allocates gigabytes of
	// slice headers before the first grammar parse can fail.
	if n > uint64(max) {
		return nil, fmt.Errorf("trace: grammar set of %d exceeds %d ranks", n, max)
	}
	gs := make([]sequitur.Serialized, n)
	for i := range gs {
		if gs[i], err = br.grammar(); err != nil {
			return nil, err
		}
	}
	return gs, nil
}

// ints reads what writeInts writes.
func (br byteReader) ints() ([]int32, error) {
	b, err := br.bytes()
	if err != nil {
		return nil, err
	}
	vs, at, err := sequitur.ReadInts[int32](b)
	if err == nil && at != len(b) {
		err = fmt.Errorf("trace: %d bytes past %d ints", len(b)-at, len(vs))
	}
	return vs, err
}

// Read parses a trace file. The File keeps the file's bytes, which it
// writes back as they are, and records where each section ends.
func Read(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	br := byteReader{r: bytes.NewReader(data)}
	m := make([]byte, len(magic))
	if _, err := io.ReadFull(br.r, m); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if br.v = version(string(m)); br.v < 1 || br.v > version(magicIndexBody) {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	f := &File{}
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		return nil, err
	}
	const maxRanks = 1 << 24
	if n > maxRanks {
		return nil, fmt.Errorf("trace: implausible rank count %d", n)
	}
	f.NumRanks = int(n)
	mode, err := br.r.ReadByte()
	if err != nil {
		return nil, err
	}
	f.TimingMode = mode
	baseBits, err := binary.ReadUvarint(br.r)
	if err != nil {
		return nil, err
	}
	f.TimingBase = math.Float64frombits(baseBits)
	if err := CheckTiming(f.TimingMode, f.TimingBase); err != nil {
		return nil, err
	}
	s := form{data: data, at: br.off()}
	s.raw = len(data) - s.at
	deflated := bodyMagic(string(m))
	if deflated {
		raw, err := br.deflatedBody()
		if err != nil {
			return nil, err
		}
		br.r = bytes.NewReader(raw)
		s.raw = len(raw)
	}
	if err = br.body(f, &s); err != nil {
		return nil, err
	}
	if deflated && br.r.Len() != 0 {
		return nil, fmt.Errorf("trace: %d bytes past the body's salvage section", br.r.Len())
	}
	f.formOnce.Do(func() { f.stored = s })
	return f, nil
}

// body reads the sections after the header into f. It records in s
// the offsets from where it starts at which the CST section, the call
// section with the rank map, and each timing set with its index end,
// and how the CST and the indices are stored.
func (br byteReader) body(f *File, s *form) (err error) {
	at := br.off()
	if s.cst, err = br.cstSection(f); err != nil {
		return
	}
	s.ends[0] = br.off() - at
	flag, err := br.r.ReadByte()
	if err != nil {
		return
	}
	switch {
	case flag == flagShapes && br.from(magicShapes):
		err = br.shaped(f)
	case flag == flagShapes:
		err = fmt.Errorf("trace: call section stored by shape in a %s file", magic)
	default:
		f.Grammars, f.Packed, err = br.packable(flag, f.NumRanks)
	}
	if err != nil {
		return
	}
	if f.RankMap, s.index[rankMapIndex], err = br.index(rankMapIndex, f.NumRanks, len(f.Grammars)); err != nil {
		return
	}
	s.ends[1] = br.off() - at
	if f.DurGrammars, err = br.timingSet(f.NumRanks); err != nil {
		return
	}
	if f.DurIndex, s.index[durIndex], err = br.index(durIndex, f.NumRanks, len(f.DurGrammars)); err != nil {
		return
	}
	s.ends[2] = br.off() - at
	if f.IntGrammars, err = br.timingSet(f.NumRanks); err != nil {
		return
	}
	if f.IntIndex, s.index[intIndex], err = br.index(intIndex, f.NumRanks, len(f.IntGrammars)); err != nil {
		return
	}
	s.ends[3] = br.off() - at
	// Optional trailing salvage section: absent (EOF here) in normal
	// traces and in files from older writers.
	flag, err = br.r.ReadByte()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return
	}
	if flag != 1 {
		err = fmt.Errorf("trace: bad trailing section flag %d", flag)
		return
	}
	sb, err := br.bytes()
	if err != nil {
		return
	}
	f.Salvage, err = deserializeSalvage(sb)
	return
}

// Save writes the trace to a file path.
func (f *File) Save(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	if _, err := f.WriteTo(fh); err != nil {
		return err
	}
	return fh.Close()
}

// Load reads a trace from a file path.
func Load(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return Read(fh)
}
