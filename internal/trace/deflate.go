package trace

// The deflated body (DESIGN §4d): under magicIndexBody, and the older
// magicBody, every section after the header is one compress/flate
// stream. Older writers deflated the timing sets one at a time instead
// (flagDeflated), which the reader keeps reading.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

// Body selectors, under a deflated body's magic. The writer stores a
// body it does not deflate under magicIndex, so the one selector is
// bodyDeflated.
const bodyDeflated = 1

// maxDeflatedRaw caps the raw length a deflate stream may declare; the
// writer stores a larger body raw. maxInflateRatio is deflate's own
// bound: a 258-byte match costs at least two bits, so no stream
// inflates past 1 032 times its length.
const (
	maxDeflatedRaw  = 1 << 28
	maxInflateRatio = 1032
)

// BodyStorage is how a trace's body — every section after the magic and
// the header — is stored: Form is "raw" or "deflated", Raw the bytes it
// takes raw and Stored the bytes it takes in the file.
type BodyStorage struct {
	Form        string
	Raw, Stored int
}

// BodyStorage reports how the body is stored. A File WriteTo refuses
// reports zeros.
func (f *File) BodyStorage() BodyStorage {
	s := f.form()
	switch {
	case s.err != nil:
		return BodyStorage{}
	case bodyMagic(string(s.data[:len(magic)])):
		return BodyStorage{"deflated", s.raw, len(s.data) - s.at}
	}
	return BodyStorage{"raw", s.raw, s.raw}
}

// deflateBody is the compress/flate stream of b at deflateLevel.
func deflateBody(b []byte) []byte {
	var z bytes.Buffer
	zw, _ := flate.NewWriter(&z, deflateLevel) // errors only on a bad level
	zw.Write(b)                                // writes to memory do not fail
	zw.Close()
	return z.Bytes()
}

// deflatedBody reads a deflated body after the header: its
// selector, then a deflate stream (see deflated) that must end the
// file. It returns the raw body.
func (br byteReader) deflatedBody() ([]byte, error) {
	sel, err := br.r.ReadByte()
	if err != nil {
		return nil, err
	}
	if sel != bodyDeflated {
		return nil, fmt.Errorf("trace: unknown body selector %d", sel)
	}
	raw, err := br.deflated()
	if err != nil {
		return nil, err
	}
	if br.r.Len() != 0 {
		return nil, fmt.Errorf("trace: bytes past the deflated body")
	}
	return raw, nil
}

// deflated reads a raw length and a framed compress/flate stream, and
// returns the raw bytes the stream inflates to. The length is capped at
// maxDeflatedRaw and at maxInflateRatio times the stream's before its
// buffer is allocated.
func (br byteReader) deflated() ([]byte, error) {
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		return nil, err
	}
	if n > maxDeflatedRaw {
		return nil, fmt.Errorf("trace: deflate stream claims %d raw bytes", n)
	}
	z, err := br.bytes()
	if err != nil {
		return nil, err
	}
	if n > maxInflateRatio*uint64(len(z)) {
		return nil, fmt.Errorf("trace: a %d-byte deflate stream claims %d raw bytes", len(z), n)
	}
	return inflate(z, int(n))
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

// timingSet reads a timing set: as readPackable reads one, or, under
// magicDeflate and magicTemplates, deflated. The raw bytes must be
// exactly one grammar set, parsed with grammarSet's caps.
func (br byteReader) timingSet(max int) ([]sequitur.Serialized, error) {
	flag, err := br.r.ReadByte()
	switch {
	case err != nil:
		return nil, err
	case flag != flagDeflated:
		gs, _, err := br.packable(flag, max)
		return gs, err
	case !deflatedSets(br.v):
		return nil, fmt.Errorf("trace: deflated grammar set in a %s file", br.magic())
	}
	raw, err := br.deflated()
	if err != nil {
		return nil, err
	}
	rd := bytes.NewReader(raw)
	gs, err := byteReader{r: rd, v: br.v}.grammarSet(max)
	if err == nil && rd.Len() != 0 {
		err = fmt.Errorf("trace: %d bytes past a deflated grammar set", rd.Len())
	}
	return gs, err
}
