// Package trace defines Pilgrim's on-disk trace format: one file for
// the whole job, holding the globally merged call signature table, the
// set of unique per-rank grammars with a (grammar-compressed) rank →
// grammar mapping, and optionally the per-rank timing grammars of the
// non-aggregated mode.
//
// Internally everything is arrays of integers (as in the paper), so
// identity checks during merging are flat comparisons, and the file is
// a straightforward binary dump with varint framing.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
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
// versions. A file whose body — every section after the magic and the
// header — is stored deflated (bodyDeflated) starts magicBody. Its raw
// body is a magicTemplates body. A file whose body is stored raw and
// that stores its CST templated (cstTemplated) starts magicTemplates.
// Otherwise a file that stores any section by the final Sequitur pass
// (flagPacked) starts magicPack, a file whose call section is stored by
// shape (flagShapes) magicShapes, and every other file magic. Files of
// the two oldest versions may hold packs of the older alphabet
// (flagHalves). Older writers stored timing sets deflated
// (flagDeflated) under magicDeflate and magicTemplates.
const (
	magic          = "PILGRIM1"
	magicShapes    = "PILGRIM2"
	magicPack      = "PILGRIM3"
	magicDeflate   = "PILGRIM4"
	magicTemplates = "PILGRIM5"
	magicBody      = "PILGRIM6"
)

// Grammar set selectors. flagHalves only under magic and magicShapes,
// flagPacked under every later magic, flagShapes, in the call section,
// under every magic but magic, and flagDeflated, in a timing section,
// only under magicDeflate and magicTemplates.
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

// minDeflatedBody is the smallest raw body the writer deflates. Each
// flate.NewWriter allocates about 700 KB of hash state: deflating every
// body took a 16-rank stencil's 1.2 KB trace from 0.35 to 0.6 ms of
// finalize, for a few hundred bytes.
const minDeflatedBody = 4 << 10

// halves reports whether a file of magic m holds packs of the older
// alphabet.
func halves(m string) bool { return m == magic || m == magicShapes }

// deflatedSets reports whether a file of magic m may hold a timing set
// stored deflated.
func deflatedSets(m string) bool { return m == magicDeflate || m == magicTemplates }

// TimingBaseError rejects a lossy-timing base that is not finite and
// greater than 1: Read returns it for such a file, and tracing options
// carrying one are refused before a run starts.
type TimingBaseError struct{ Base float64 }

func (e *TimingBaseError) Error() string {
	return fmt.Sprintf("lossy timing base %v is not finite and > 1", e.Base)
}

// File is a complete compressed trace.
//
// A File is built by filling its exported fields (finalize, Read) and
// is read-only from the first call of a read method — GrammarIndex,
// Terms, DecodedSig, and everything above them (core.DecodeRank,
// analysis, replay, ...). Those methods resolve what is shared by all
// ranks once per File and keep it: the rank → grammar index, and each
// CST entry's decoded signature. They may be called from any number of
// goroutines. What they return is shared with every other caller and
// must not be modified: the slice from GrammarIndex, and the Args
// (including nested Arr slices) of decoded signatures. Changing
// RankMap, Grammars or CST after a read method has run is not seen.
// Because it carries that state a File must not be copied by value.
type File struct {
	NumRanks   int
	TimingMode uint8
	TimingBase float64

	CST *cst.Table

	// Grammars holds the unique per-rank grammars after the identity
	// dedup of §3.5.2; RankMap is a grammar over unique-grammar
	// indices whose expansion has one terminal per rank.
	Grammars []sequitur.Serialized
	RankMap  sequitur.Serialized

	// Shape, if non-nil, holds per grammar -1 if it is the first of its
	// shape (its representative), else that representative's index; nil
	// means all are representatives (DESIGN §4d).
	Shape []int32

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

	// read is the magic of the file Read parsed this File from, "" for
	// a File built in memory. A File read from a file writes back to its
	// bytes: the magic, each pack in its alphabet, each section stored
	// as it was read.
	read string

	// How the duration and interval sets are stored, as Read found
	// them; a File built in memory stores them raw.
	timing [2]storedSet

	// The deflated body: computed on the first write of a File built in
	// memory whose body reaches minDeflatedBody (deflating is the costly
	// part of a write), or set by Read. Once it is, changing the File is
	// not seen.
	bodyOnce sync.Once
	deflated storedBody

	// How the CST is stored: decided on the first write of a File built
	// in memory, or set by Read (see storedCST).
	cstOnce sync.Once
	cst     storedCST

	// Read-path memo (see the type comment): the validated rank map
	// expansion, and one lazily decoded slot per CST entry.
	rankOnce sync.Once
	rankIdx  []int32
	rankErr  error
	sigOnce  sync.Once
	sigs     []atomic.Pointer[decodedSig]
}

// decodedSig is one CST entry's decode result, error included, so a
// malformed signature fails the same way on every call and rank.
type decodedSig struct {
	d   sig.Decoded
	err error
}

// SalvageInfo tags a partial trace produced by SalvageFinalize.
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
// Grammars. The rank map is expanded and validated once per File; the
// returned slice is shared and must not be modified.
func (f *File) GrammarIndex() ([]int32, error) {
	f.rankOnce.Do(func() { f.rankIdx, f.rankErr = f.expandRankMap() })
	return f.rankIdx, f.rankErr
}

func (f *File) expandRankMap() ([]int32, error) {
	// The cap is never 0 (which would disable it), even for 0 ranks.
	idx, n := f.RankMap.ExpandCapped(int64(f.NumRanks) + 1)
	if n != int64(f.NumRanks) {
		return nil, fmt.Errorf("trace: rank map expands to %d entries for %d ranks", n, f.NumRanks)
	}
	for _, i := range idx {
		if int(i) >= len(f.Grammars) {
			return nil, fmt.Errorf("trace: rank map references grammar %d of %d", i, len(f.Grammars))
		}
	}
	return idx, nil
}

// maxCallsPerRank bounds in-memory expansion of one rank's call
// stream (a corrupted trace could otherwise claim astronomically large
// run-length exponents and exhaust memory).
const maxCallsPerRank = 1 << 28

// Terms expands rank r's grammar into its terminal sequence. The
// expansion is the caller's own: it is O(calls) and not kept.
func (f *File) Terms(rank int) ([]int32, error) {
	if rank < 0 || rank >= f.NumRanks {
		return nil, fmt.Errorf("trace: rank %d out of range", rank)
	}
	idx, err := f.GrammarIndex()
	if err != nil {
		return nil, err
	}
	terms, n := f.Grammars[idx[rank]].ExpandCapped(maxCallsPerRank)
	if n > maxCallsPerRank {
		return nil, fmt.Errorf("trace: rank %d stream of %d calls exceeds the in-memory cap", rank, n)
	}
	return terms, nil
}

// DecodedSig returns CST entry term decoded. Each entry is decoded
// once per File, on first reference, and the result — or the decode
// error — is kept; the Args of the returned value are shared by every
// call with that signature and must not be modified.
func (f *File) DecodedSig(term int32) (sig.Decoded, error) {
	f.sigOnce.Do(func() { f.sigs = make([]atomic.Pointer[decodedSig], f.CST.Len()) })
	if term < 0 || int(term) >= len(f.sigs) {
		return sig.Decoded{}, fmt.Errorf("trace: no CST entry %d (table holds %d)", term, len(f.sigs))
	}
	slot := &f.sigs[term]
	e := slot.Load()
	if e == nil {
		// Racing first references decode the same bytes; the first to
		// publish wins so all callers share one Args slice.
		e = new(decodedSig)
		e.d, e.err = sig.Decode(f.CST.Sig(term))
		if !slot.CompareAndSwap(nil, e) {
			e = slot.Load()
		}
	}
	return e.d, e.err
}

// --- serialization -----------------------------------------------------------

// The writer builds the body in memory, so its writes do not fail.

func writeBytes(w *bytes.Buffer, b []byte) {
	var tmp [binary.MaxVarintLen64]byte
	w.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(b)))])
	w.Write(b)
}

func writeGrammar(w *bytes.Buffer, g sequitur.Serialized) {
	writeBytes(w, appendInts(make([]byte, 0, len(g)*3), g))
}

// appendInts appends what varints reads: the count of vs, then each as
// a zigzag varint.
func appendInts[T int32 | int64](buf []byte, vs []T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

func writeGrammarSet(w *bytes.Buffer, gs []sequitur.Serialized) {
	var tmp [binary.MaxVarintLen64]byte
	w.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(gs)))])
	for _, g := range gs {
		writeGrammar(w, g)
	}
}

func writeIndex(w *bytes.Buffer, idx []int32) {
	writeBytes(w, appendInts(make([]byte, 0, len(idx)*2+8), idx))
}

// WriteTo serializes the trace. It fails without writing when Shape
// does not describe Grammars.
func (f *File) WriteTo(w io.Writer) (int64, error) { return f.write(w, f.shaped) }

// write serializes the trace with the call section sec gives (see
// writeCalls): the magic, the header (the rank count, the timing mode
// and the timing base), then the body, raw or, under magicBody, as its
// selector, its raw length and its compress/flate stream.
func (f *File) write(w io.Writer, sec func() (*shapedSection, error)) (int64, error) {
	m, body, z, err := f.body(sec)
	if err != nil {
		return 0, err
	}
	head := binary.AppendUvarint([]byte(m), uint64(f.NumRanks))
	head = append(head, f.TimingMode)
	head = binary.AppendUvarint(head, math.Float64bits(f.TimingBase))
	if z != nil {
		head = append(head, bodyDeflated)
		head = binary.AppendUvarint(head, uint64(z.raw))
		head = binary.AppendUvarint(head, uint64(len(z.z)))
		body = z.z
	}
	n, err := w.Write(head)
	if err == nil {
		var k int
		k, err = w.Write(body)
		n += k
	}
	return int64(n), err
}

// body returns the magic f is written under and its body, raw or, under
// magicBody, deflated (z non-nil), with the call section sec gives (see
// writeCalls); it fails where sec does. A File read from a file keeps
// its magic and stores its body as it was read. A File built in memory
// decides on its first write whether it deflates its body (see
// deflate); a deflated body is never laid out again.
func (f *File) body(sec func() (*shapedSection, error)) (m string, raw []byte, z *storedBody, err error) {
	if f.read == "" {
		f.bodyOnce.Do(func() { m, raw, f.deflated, err = f.deflate(sec) })
	}
	switch {
	case f.read == magicBody || f.deflated.z != nil:
		return magicBody, nil, &f.deflated, nil
	case raw != nil || err != nil: // the first write's
		return m, raw, nil, err
	}
	s, err := sec()
	if err != nil {
		return "", nil, nil, err
	}
	if m = f.read; m == "" {
		m = f.rawMagic(s)
	}
	raw, _ = f.writeBody(m, s)
	return m, raw, nil, nil
}

// deflate lays out the body of a File built in memory and returns its
// magic and raw bytes, and its deflated form when the raw body takes at
// least minDeflatedBody bytes and the stream fewer; else the zero
// storedBody. The stream holds the body as magicBody lays it out.
func (f *File) deflate(sec func() (*shapedSection, error)) (string, []byte, storedBody, error) {
	s, err := sec()
	if err != nil {
		return "", nil, storedBody{}, err
	}
	m := f.rawMagic(s)
	raw, _ := f.writeBody(m, s)
	if len(raw) < minDeflatedBody || len(raw) > maxDeflatedRaw {
		return m, raw, storedBody{}, nil
	}
	b := raw
	if m != magicTemplates { // an older magic's CST has no selector
		b, _ = f.writeBody(magicBody, s)
	}
	if d := (storedBody{z: deflateBody(b), raw: len(b)}); d.len() < len(raw) {
		return magicBody, nil, d, nil
	}
	return m, raw, storedBody{}, nil
}

// rawMagic is the magic of a File built in memory whose body is stored
// raw (see magicBody).
func (f *File) rawMagic(sec *shapedSection) string {
	switch {
	case f.storedCST().templated != nil:
		return magicTemplates
	case f.stored(f.calls(sec), f.Packed) != nil || f.timing[0].pack != nil || f.timing[1].pack != nil:
		return magicPack
	case sec != nil:
		return magicShapes
	}
	return magic
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

// writeBody serializes the body as a file of magic m stores it. ends
// holds the offsets at which the CST section, the call section with the
// rank map, and each timing set with its index end.
func (f *File) writeBody(m string, sec *shapedSection) (body []byte, ends [4]int) {
	packFlag := byte(flagPacked)
	if halves(m) {
		packFlag = flagHalves
	}
	var w bytes.Buffer
	f.storedCST().write(&w, m)
	ends[0] = w.Len()
	f.writeCalls(&w, sec, f.stored(f.calls(sec), f.Packed), packFlag)
	writeGrammar(&w, f.RankMap)
	ends[1] = w.Len()
	f.timing[0].write(&w, f.DurGrammars, packFlag)
	writeIndex(&w, f.DurIndex)
	ends[2] = w.Len()
	f.timing[1].write(&w, f.IntGrammars, packFlag)
	writeIndex(&w, f.IntIndex)
	ends[3] = w.Len()
	if f.Salvage != nil {
		w.WriteByte(1)
		writeBytes(&w, f.Salvage.serialize())
	}
	return w.Bytes(), ends
}

func (s *SalvageInfo) serialize() []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(s.FailedRanks)))
	for _, r := range s.FailedRanks {
		buf = binary.AppendVarint(buf, int64(r))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Reason)))
	buf = append(buf, s.Reason...)
	buf = binary.AppendUvarint(buf, uint64(len(s.Calls)))
	for _, c := range s.Calls {
		buf = binary.AppendVarint(buf, c)
	}
	return buf
}

func deserializeSalvage(data []byte) (*SalvageInfo, error) {
	rd := bytes.NewReader(data)
	s := &SalvageInfo{}
	n, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, fmt.Errorf("trace: truncated salvage rank count")
	}
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("trace: salvage claims %d failed ranks in %d bytes", n, len(data))
	}
	for i := uint64(0); i < n; i++ {
		v, err := binary.ReadVarint(rd)
		if err != nil {
			return nil, fmt.Errorf("trace: truncated salvage rank %d", i)
		}
		s.FailedRanks = append(s.FailedRanks, int32(v))
	}
	l, err := binary.ReadUvarint(rd)
	if err != nil || l > uint64(rd.Len()) {
		return nil, fmt.Errorf("trace: truncated salvage reason")
	}
	reason := make([]byte, l)
	if _, err := io.ReadFull(rd, reason); err != nil {
		return nil, fmt.Errorf("trace: truncated salvage reason")
	}
	s.Reason = string(reason)
	n, err = binary.ReadUvarint(rd)
	if err != nil {
		return nil, fmt.Errorf("trace: truncated salvage call counts")
	}
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("trace: salvage claims %d call counts in %d bytes", n, len(data))
	}
	for i := uint64(0); i < n; i++ {
		v, err := binary.ReadVarint(rd)
		if err != nil {
			return nil, fmt.Errorf("trace: truncated salvage call count %d", i)
		}
		s.Calls = append(s.Calls, v)
	}
	if rd.Len() != 0 {
		return nil, fmt.Errorf("trace: %d trailing salvage bytes", rd.Len())
	}
	return s, nil
}

// stored returns pack if the file stores it instead of the grammar set
// gs, else nil: it does when the pack takes fewer bytes. A File read
// from a file stores the packs it was read with.
func (f *File) stored(gs []sequitur.Serialized, pack sequitur.Serialized) sequitur.Serialized {
	if pack == nil || f.read != "" || grammarLen(pack) < setLen(gs) {
		return pack
	}
	return nil
}

// setLen is the number of bytes writeGrammarSet writes for gs.
func setLen(gs []sequitur.Serialized) int {
	n := uvarintLen(uint64(len(gs)))
	for _, g := range gs {
		n += grammarLen(g)
	}
	return n
}

// grammarLen is the number of bytes writeGrammar writes for g.
func grammarLen(g sequitur.Serialized) int {
	n := uvarintLen(uint64(len(g)))
	for _, v := range g {
		n += uvarintLen(uint64(v)<<1 ^ uint64(v>>31)) // binary.AppendVarint's zigzag
	}
	return uvarintLen(uint64(n)) + n
}

// uvarintLen is len(binary.AppendUvarint(nil, u)).
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// writePackable writes a grammar set behind a selector byte: as pack,
// under packFlag, if pack is non-nil, else raw.
func writePackable(w *bytes.Buffer, gs []sequitur.Serialized, pack sequitur.Serialized, packFlag byte) {
	if pack != nil {
		w.WriteByte(packFlag)
		writeGrammar(w, pack)
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
	case flag == flagHalves && halves(br.magic), flag == flagPacked && !halves(br.magic):
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
		return nil, nil, fmt.Errorf("trace: grammar pack selector %d in a %s file", flag, br.magic)
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
// size" every figure reports.
func (f *File) SizeBytes() int {
	n, err := f.WriteTo(io.Discard)
	if err != nil {
		return -1
	}
	return int(n)
}

// SectionSizes reports the bytes the main sections take in the body,
// raw, for the overhead and Figure 10 style breakdowns: the CST
// section, the call section with the rank map, and each timing set with
// its index. With a salvage section they are the raw body. A File
// WriteTo refuses reports zeros.
func (f *File) SectionSizes() (cstB, cfgB, durB, intB int) {
	m, _, _, err := f.body(f.shaped)
	sec, serr := f.shaped()
	if err != nil || serr != nil {
		return
	}
	_, e := f.writeBody(m, sec)
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
	r interface {
		io.Reader
		io.ByteReader
	}
	magic string // the file's, which decides the selectors it may hold
}

func (br byteReader) bytes() ([]byte, error) {
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		return nil, err
	}
	// Never trust a length from the wire: read in bounded chunks so a
	// corrupt huge length fails at EOF instead of exhausting memory.
	const chunk = 1 << 20
	var b []byte
	for remaining := n; remaining > 0; {
		step := remaining
		if step > chunk {
			step = chunk
		}
		start := len(b)
		b = append(b, make([]byte, step)...)
		if _, err := io.ReadFull(br.r, b[start:]); err != nil {
			return nil, err
		}
		remaining -= step
	}
	return b, nil
}

func (br byteReader) grammar() (sequitur.Serialized, error) {
	b, err := br.bytes()
	if err != nil {
		return nil, err
	}
	vs, at, err := varints[int32](b)
	if err != nil {
		return nil, err
	}
	if at != len(b) {
		return nil, fmt.Errorf("trace: trailing grammar bytes")
	}
	g := sequitur.Serialized(vs)
	// Validate also rejects the empty grammar, which no writer produces
	// and every expansion below would index out of range on.
	if err := g.Validate(); err != nil {
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

func (br byteReader) index() ([]int32, error) {
	b, err := br.bytes()
	if err != nil {
		return nil, err
	}
	idx, _, err := varints[int32](b)
	return idx, err
}

// varints parses what appendInts writes: a count, then that many
// zigzag varints, truncated to T. It returns them and the bytes they
// took.
func varints[T int32 | int64](b []byte) ([]T, int, error) {
	n, at := binary.Uvarint(b)
	if at <= 0 {
		return nil, 0, fmt.Errorf("trace: bad int count")
	}
	if n > uint64(len(b)) { // every int costs at least one byte
		return nil, 0, fmt.Errorf("trace: %d ints claimed in %d bytes", n, len(b))
	}
	vs := make([]T, n)
	for i := range vs {
		if at < len(b) && b[at] < 0x80 { // one byte: most ints of a grammar
			vs[i], at = T(b[at]>>1)^-T(b[at]&1), at+1
			continue
		}
		v, k := binary.Varint(b[at:])
		if k <= 0 {
			return nil, 0, fmt.Errorf("trace: bad int %d of %d", i, n)
		}
		vs[i], at = T(v), at+k
	}
	return vs, at, nil
}

// Read parses a trace file.
func Read(r io.Reader) (*File, error) {
	br := byteReader{r: bufio.NewReader(r)}
	m := make([]byte, len(magic))
	if _, err := io.ReadFull(br.r, m); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	switch br.magic = string(m); br.magic {
	case magic, magicShapes, magicPack, magicDeflate, magicTemplates, magicBody:
	default:
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	f := &File{read: br.magic}
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
	if f.TimingMode == TimingLossy && !timing.ValidBase(f.TimingBase) {
		return nil, &TimingBaseError{Base: f.TimingBase}
	}
	if br.magic != magicBody {
		if err := br.body(f); err != nil {
			return nil, err
		}
		return f, nil
	}
	rd, err := br.deflatedBody(&f.deflated)
	if err != nil {
		return nil, err
	}
	if err := (byteReader{r: rd, magic: magicBody}).body(f); err != nil {
		return nil, err
	}
	if rd.Len() != 0 {
		return nil, fmt.Errorf("trace: %d bytes past the body's salvage section", rd.Len())
	}
	return f, nil
}

// body reads the sections after the header into f.
func (br byteReader) body(f *File) error {
	if err := br.cstSection(f); err != nil {
		return err
	}
	flag, err := br.r.ReadByte()
	if err != nil {
		return err
	}
	switch {
	case flag == flagShapes && br.magic != magic:
		err = br.shaped(f)
	case flag == flagShapes:
		err = fmt.Errorf("trace: call section stored by shape in a %s file", magic)
	default:
		f.Grammars, f.Packed, err = br.packable(flag, f.NumRanks)
	}
	if err != nil {
		return err
	}
	if f.RankMap, err = br.grammar(); err != nil {
		return err
	}
	if f.DurGrammars, err = br.timingSet(&f.timing[0], f.NumRanks); err != nil {
		return err
	}
	if f.DurIndex, err = br.index(); err != nil {
		return err
	}
	if f.IntGrammars, err = br.timingSet(&f.timing[1], f.NumRanks); err != nil {
		return err
	}
	if f.IntIndex, err = br.index(); err != nil {
		return err
	}
	// Optional trailing salvage section: absent (EOF here) in normal
	// traces and in files from older writers.
	flag, err = br.r.ReadByte()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return err
	}
	if flag != 1 {
		return fmt.Errorf("trace: bad trailing section flag %d", flag)
	}
	sb, err := br.bytes()
	if err != nil {
		return err
	}
	f.Salvage, err = deserializeSalvage(sb)
	return err
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
