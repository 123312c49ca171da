package trace

// The deflated body (DESIGN §4d): under magicBody every section after
// the header is one compress/flate stream. Older writers deflated the
// timing sets one at a time instead (flagDeflated), which the reader
// keeps reading.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

// Body selectors, under magicBody. The writer stores a body it does not
// deflate under an older magic, so the one selector is bodyDeflated.
const bodyDeflated = 1

// maxDeflatedRaw caps the raw length a deflate stream may declare; the
// writer stores a larger body raw. maxInflateRatio is deflate's own
// bound: a 258-byte match costs at least two bits, so no stream
// inflates past 1 032 times its length.
const (
	maxDeflatedRaw  = 1 << 28
	maxInflateRatio = 1032
)

// storedBody is a deflated body: the compress/flate stream z of the raw
// body, raw bytes long.
type storedBody struct {
	z   []byte
	raw int
}

// len is the bytes s takes in the file: its selector, its raw length
// and its stream, framed.
func (s *storedBody) len() int { return 1 + uvarintLen(uint64(s.raw)) + framedLen(len(s.z)) }

// BodyStorage is how a trace's body — every section after the magic and
// the header — is stored: Form is "raw" or "deflated", Raw the bytes it
// takes raw and Stored the bytes it takes in the file.
type BodyStorage struct {
	Form        string
	Raw, Stored int
}

// BodyStorage reports how the body is stored. On a File built in
// memory it deflates a body that reaches minDeflatedBody, unless a
// write has. A File WriteTo refuses reports zeros.
func (f *File) BodyStorage() BodyStorage {
	_, raw, z, err := f.body(f.shaped)
	switch {
	case err != nil:
		return BodyStorage{}
	case z != nil:
		return BodyStorage{"deflated", z.raw, z.len()}
	}
	return BodyStorage{"raw", len(raw), len(raw)}
}

// deflateBody is the compress/flate stream of b at deflateLevel.
func deflateBody(b []byte) []byte {
	var z bytes.Buffer
	zw, _ := flate.NewWriter(&z, deflateLevel) // errors only on a bad level
	zw.Write(b)                                // writes to memory do not fail
	zw.Close()
	return z.Bytes()
}

// deflatedBody reads a magicBody file's body after the header: its
// selector, then a deflate stream (see deflated) that must end the
// file. It records the stream in s and returns a reader of the raw
// body.
func (br byteReader) deflatedBody(s *storedBody) (*bytes.Reader, error) {
	sel, err := br.r.ReadByte()
	if err != nil {
		return nil, err
	}
	if sel != bodyDeflated {
		return nil, fmt.Errorf("trace: unknown body selector %d", sel)
	}
	z, raw, err := br.deflated()
	if err != nil {
		return nil, err
	}
	if _, err := br.r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trace: bytes past the deflated body")
	}
	s.z, s.raw = z, len(raw)
	return bytes.NewReader(raw), nil
}

// deflated reads a raw length and a framed compress/flate stream, and
// returns the stream and the raw bytes it inflates to. The length is
// capped at maxDeflatedRaw and at maxInflateRatio times the stream's
// before its buffer is allocated.
func (br byteReader) deflated() (z, raw []byte, err error) {
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		return nil, nil, err
	}
	if n > maxDeflatedRaw {
		return nil, nil, fmt.Errorf("trace: deflate stream claims %d raw bytes", n)
	}
	if z, err = br.bytes(); err != nil {
		return nil, nil, err
	}
	if n > maxInflateRatio*uint64(len(z)) {
		return nil, nil, fmt.Errorf("trace: a %d-byte deflate stream claims %d raw bytes", len(z), n)
	}
	raw, err = inflate(z, int(n))
	return z, raw, err
}

// inflate returns the n bytes the compress/flate stream z holds. A
// stream that ends short of n bytes, runs past them, or is followed by
// more bytes is an error.
func inflate(z []byte, n int) ([]byte, error) {
	zr := bytes.NewReader(z)
	fr := flate.NewReader(zr)
	raw := make([]byte, n)
	if _, err := io.ReadFull(fr, raw); err != nil {
		return nil, fmt.Errorf("trace: deflate stream short of its %d bytes: %v", n, err)
	}
	if k, err := fr.Read(make([]byte, 1)); k != 0 || err != io.EOF {
		return nil, fmt.Errorf("trace: deflate stream does not end at its %d bytes", n)
	}
	if zr.Len() != 0 {
		return nil, fmt.Errorf("trace: %d bytes past a deflate stream", zr.Len())
	}
	return raw, nil
}

// storedSet is how Read found one timing set stored: as pack if that is
// non-nil (a pack an older writer stored), as the compress/flate stream
// z of its raw bytes, raw long, if that is non-nil (an older writer's
// flagDeflated), else raw; at most one of the two is set.
type storedSet struct {
	pack sequitur.Serialized
	z    []byte
	raw  int
}

// write writes gs as s stores it, behind its selector.
func (s *storedSet) write(w *bytes.Buffer, gs []sequitur.Serialized, packFlag byte) {
	if s.z == nil {
		writePackable(w, gs, s.pack, packFlag)
		return
	}
	w.WriteByte(flagDeflated)
	w.Write(binary.AppendUvarint(nil, uint64(s.raw)))
	writeBytes(w, s.z)
}

// timingSet reads a timing set, recording in s how it was stored: as
// readPackable reads one, or, under magicDeflate and magicTemplates,
// deflated. The raw bytes must be exactly one grammar set, parsed with
// grammarSet's caps.
func (br byteReader) timingSet(s *storedSet, max int) ([]sequitur.Serialized, error) {
	flag, err := br.r.ReadByte()
	switch {
	case err != nil:
		return nil, err
	case flag != flagDeflated:
		var gs []sequitur.Serialized
		gs, s.pack, err = br.packable(flag, max)
		return gs, err
	case !deflatedSets(br.magic):
		return nil, fmt.Errorf("trace: deflated grammar set in a %s file", br.magic)
	}
	z, raw, err := br.deflated()
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
	s.z, s.raw = z, len(raw)
	return gs, nil
}
