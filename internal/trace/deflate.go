package trace

// A timing section (DESIGN §4d): the duration or interval grammar set,
// stored raw or deflated (flagDeflated), or as older writers stored it,
// packed by the final Sequitur pass.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

// maxDeflatedRaw caps the raw length a deflated set may declare; the
// writer stores a larger set raw. maxInflateRatio is deflate's own
// bound: a 258-byte match costs at least two bits, so no stream
// inflates past 1 032 times its length.
const (
	maxDeflatedRaw  = 1 << 28
	maxInflateRatio = 1032
)

// storedSet is how one timing set is stored: as pack if that is
// non-nil (a pack a file was read with), as the compress/flate stream z
// if that is non-nil, else raw; at most one of the two is set. raw is
// the set's length stored raw, as writeGrammarSet writes it.
type storedSet struct {
	pack sequitur.Serialized
	z    []byte
	raw  int
}

// SetStorage is how a timing set is stored: Form is "raw", "packed" or
// "deflated", Raw the bytes the set takes raw and Stored the bytes it
// takes as stored, both without its selector byte.
type SetStorage struct {
	Form        string
	Raw, Stored int
}

// TimingStorage reports how the duration and interval sets are stored.
// On a File built in memory it deflates them, unless a write has.
func (f *File) TimingStorage() (dur, intv SetStorage) {
	tm := f.timingSets()
	return tm[0].storage(), tm[1].storage()
}

// timingSets decides, once per File, how the timing sets are stored. A
// File built in memory stores a non-empty set deflated when that takes
// fewer bytes than raw; a File read from a file keeps what Read set.
func (f *File) timingSets() *[2]storedSet {
	f.timingOnce.Do(func() {
		for i, gs := range [2][]sequitur.Serialized{f.DurGrammars, f.IntGrammars} {
			s := &f.timing[i]
			if s.z != nil {
				continue
			}
			s.raw = setLen(gs)
			if f.read == "" && s.pack == nil && len(gs) > 0 && s.raw <= maxDeflatedRaw {
				if s.z = deflateSet(gs); s.zLen() >= s.raw {
					s.z = nil
				}
			}
		}
	})
	return &f.timing
}

// deflateSet is the compress/flate stream of the bytes writeGrammarSet
// writes for gs.
func deflateSet(gs []sequitur.Serialized) []byte {
	var z bytes.Buffer
	zw, _ := flate.NewWriter(&z, deflateLevel) // errors only on a bad level
	bw := bufio.NewWriter(zw)
	_ = writeGrammarSet(bw, gs) // writes to memory do not fail
	_ = bw.Flush()
	_ = zw.Close()
	return z.Bytes()
}

// zLen is the length of a flagDeflated section after its selector.
func (s *storedSet) zLen() int {
	return uvarintLen(uint64(s.raw)) + uvarintLen(uint64(len(s.z))) + len(s.z)
}

func (s *storedSet) storage() SetStorage {
	switch {
	case s.pack != nil:
		return SetStorage{"packed", s.raw, grammarLen(s.pack)}
	case s.z != nil:
		return SetStorage{"deflated", s.raw, s.zLen()}
	}
	return SetStorage{"raw", s.raw, s.raw}
}

// sectionBytes is SectionSizes' count for gs stored as s stores it.
func (f *File) sectionBytes(gs []sequitur.Serialized, s *storedSet) int {
	if s.z != nil {
		return s.zLen()
	}
	return f.packableInts(gs, s.pack) * 4
}

// write writes gs as s stores it, behind its selector.
func (s *storedSet) write(w *bufio.Writer, gs []sequitur.Serialized, packFlag byte) error {
	if s.z == nil {
		return writePackable(w, gs, s.pack, packFlag)
	}
	// A bufio.Writer keeps its first error, and writeBytes returns it.
	_ = w.WriteByte(flagDeflated)
	_, _ = w.Write(binary.AppendUvarint(nil, uint64(s.raw)))
	return writeBytes(w, s.z)
}

// timingSet reads a timing set, recording in s how it was stored: as
// readPackable reads one, or, from magicDeflate on, deflated. The raw
// bytes must be exactly one grammar set, parsed with grammarSet's caps.
func (br byteReader) timingSet(s *storedSet, max int) ([]sequitur.Serialized, error) {
	flag, err := br.r.ReadByte()
	switch {
	case err != nil:
		return nil, err
	case flag != flagDeflated:
		var gs []sequitur.Serialized
		gs, s.pack, err = br.packable(flag, max)
		return gs, err
	case br.magic < magicDeflate:
		return nil, fmt.Errorf("trace: deflated grammar set in a %s file", br.magic)
	}
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		return nil, err
	}
	if n > maxDeflatedRaw {
		return nil, fmt.Errorf("trace: deflated grammar set claims %d raw bytes", n)
	}
	z, err := br.bytes()
	if err != nil {
		return nil, err
	}
	if n > maxInflateRatio*uint64(len(z)) {
		return nil, fmt.Errorf("trace: a %d-byte deflate stream claims %d raw bytes", len(z), n)
	}
	raw, err := inflate(z, int(n))
	if err != nil {
		return nil, err
	}
	rd := bytes.NewReader(raw)
	gs, err := byteReader{r: rd, magic: br.magic}.grammarSet(max)
	if err == nil && rd.Len() != 0 {
		err = fmt.Errorf("trace: %d bytes past a deflated grammar set", rd.Len())
	}
	if err != nil {
		return nil, err
	}
	s.z, s.raw = z, int(n)
	return gs, nil
}

// inflate returns the n bytes the compress/flate stream z holds. A
// stream that ends short of n bytes, runs past them, or is followed by
// more bytes is an error.
func inflate(z []byte, n int) ([]byte, error) {
	zr := bytes.NewReader(z)
	fr := flate.NewReader(zr)
	raw := make([]byte, n)
	if _, err := io.ReadFull(fr, raw); err != nil {
		return nil, fmt.Errorf("trace: deflated grammar set short of its %d bytes: %v", n, err)
	}
	if k, err := fr.Read(make([]byte, 1)); k != 0 || err != io.EOF {
		return nil, fmt.Errorf("trace: deflated grammar set does not end at its %d bytes", n)
	}
	if zr.Len() != 0 {
		return nil, fmt.Errorf("trace: %d bytes past a deflate stream", zr.Len())
	}
	return raw, nil
}
