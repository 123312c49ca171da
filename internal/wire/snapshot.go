package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

// Snapshot body layout (all integers varint unless noted):
//
//	rank, calls, intraNs
//	CST: length-prefixed cst.Table.AppendExact bytes (exact duration
//	     sums — the on-disk average form would break byte-equivalence
//	     of the collector-side merge)
//	call grammar (sequitur.AppendInts)
//	flags byte: bit0 = timing grammars present, bit1 = raw verify capture
//	[duration grammar, interval grammar]
//	[raw capture: n sigs, n × (len, bytes), n × (tStart, tEnd)]
//
// Only older producers set bit1: the decoder walks and bounds their
// raw capture, and drops it.

const (
	flagTiming = 1 << 0
	flagRaw    = 1 << 1
)

// EncodeSnapshot serializes one rank's crash-consistent snapshot. The
// body is sized exactly first, so encoding is a single allocation.
func EncodeSnapshot(s *core.Snapshot) []byte {
	timing := s.DurGrammar != nil || s.IntGrammar != nil
	tableLen := s.Table.ExactSize()
	n := uvarintLen(uint64(s.Rank)) + varintLen(s.Calls) + varintLen(s.IntraNs) +
		uvarintLen(uint64(tableLen)) + tableLen + sequitur.IntsLen(s.Grammar) + 1
	if timing {
		n += sequitur.IntsLen(s.DurGrammar) + sequitur.IntsLen(s.IntGrammar)
	}

	b := make([]byte, 0, n)
	b = binary.AppendUvarint(b, uint64(s.Rank))
	b = binary.AppendVarint(b, s.Calls)
	b = binary.AppendVarint(b, s.IntraNs)
	b = binary.AppendUvarint(b, uint64(tableLen))
	b = s.Table.AppendExact(b)
	b = sequitur.AppendInts(b, s.Grammar)
	var flags byte
	if timing {
		flags |= flagTiming
	}
	b = append(b, flags)
	if timing {
		b = sequitur.AppendInts(b, s.DurGrammar)
		b = sequitur.AppendInts(b, s.IntGrammar)
	}
	return b
}

// uvarintLen and varintLen are the encoded sizes binary.AppendUvarint
// and binary.AppendVarint produce.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
func varintLen(v int64) int   { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// grammar decodes a count-prefixed grammar, validating structure so a
// hostile snapshot cannot smuggle a cyclic or truncated grammar into
// the merge. Empty (count 0) is allowed only when optional is set —
// the call grammar of a rank that traced nothing is still the
// one-empty-rule grammar, never length zero.
func (d *dec) grammar(what string, optional bool) (sequitur.Serialized, error) {
	vs, k, err := sequitur.ReadInts[int32](d.b[d.pos:])
	if err != nil {
		return nil, fmt.Errorf("wire: %s: %w", what, err)
	}
	d.pos += k
	g := sequitur.Serialized(vs)
	if len(g) == 0 {
		if optional {
			return nil, nil
		}
		return nil, fmt.Errorf("wire: empty %s", what)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("wire: %s: %w", what, err)
	}
	return g, nil
}

// DecodeScratch owns the ingest path's reusable decode state: the
// frame-body buffer (fed to ReadFrameBuf) and the decoder cursor. One
// scratch per connection makes the per-frame cost of the collector's
// hot loop allocate only what the decoded snapshot itself retains —
// the same treatment sig.Encoder.EncodeTo gave the tracer's encode
// path. Not safe for concurrent use.
type DecodeScratch struct {
	frame []byte
	h     frameHdr
	d     dec
}

// ReadFrame reads one frame into the scratch's body buffer. The
// returned body is valid until the next ReadFrame on this scratch.
func (sc *DecodeScratch) ReadFrame(r io.Reader) (typ byte, body []byte, err error) {
	typ, body, err = readFrameInto(r, sc.frame, &sc.h)
	if cap(body) > cap(sc.frame) {
		sc.frame = body[:cap(body)]
	}
	return typ, body, err
}

// DecodeSnapshot parses a snapshot body using the scratch's decoder
// state. The returned snapshot owns all of its memory (nothing aliases
// the scratch or body), so it may be retained past the next call.
func (sc *DecodeScratch) DecodeSnapshot(body []byte) (*core.Snapshot, error) {
	sc.d = dec{b: body}
	return decodeSnapshot(&sc.d)
}

// DecodeSnapshot parses and validates a snapshot body. Allocation is
// bounded by the (already capped) body size: every claimed count is
// checked against the bytes actually present before anything sized by
// it is allocated.
func DecodeSnapshot(body []byte) (*core.Snapshot, error) {
	return decodeSnapshot(&dec{b: body})
}

// DecodePair parses, in place, the (Hello, Snapshot) frame pair that
// is the unit of a frame-pair log (internal/framelog): both
// frames checked by SplitFrame, both bodies validated, nothing allowed
// after the pair. Callers check the Hello's identity against the entry
// they asked for. Nothing returned aliases b.
func DecodePair(b []byte) (*Hello, *core.Snapshot, error) {
	ht, hb, rest, err := SplitFrame(b)
	if err != nil {
		return nil, nil, fmt.Errorf("hello: %w", err)
	}
	st, sb, rest, err := SplitFrame(rest)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	if ht != TypeHello || st != TypeSnapshot || len(rest) != 0 {
		return nil, nil, fmt.Errorf("wire: frames 0x%02x, 0x%02x and %d more bytes where one hello, snapshot pair was expected", ht, st, len(rest))
	}
	h, err := DecodeHello(hb)
	if err != nil {
		return nil, nil, fmt.Errorf("hello: %w", err)
	}
	s, err := decodeSnapshot(&dec{b: sb})
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	return h, s, nil
}

func decodeSnapshot(d *dec) (*core.Snapshot, error) {
	s := &core.Snapshot{}
	rank, err := d.uvarint("snapshot rank")
	if err != nil {
		return nil, err
	}
	if rank >= MaxWorldSize {
		return nil, fmt.Errorf("wire: snapshot rank %d exceeds cap", rank)
	}
	s.Rank = int(rank)
	if s.Calls, err = d.varint("snapshot call count"); err != nil {
		return nil, err
	}
	if s.Calls < 0 {
		return nil, fmt.Errorf("wire: negative snapshot call count %d", s.Calls)
	}
	if s.IntraNs, err = d.varint("snapshot intra ns"); err != nil {
		return nil, err
	}
	tb, err := d.bytes("snapshot cst")
	if err != nil {
		return nil, err
	}
	if s.Table, err = cst.DeserializeExact(tb); err != nil {
		return nil, err
	}
	if s.Grammar, err = d.grammar("snapshot grammar", false); err != nil {
		return nil, err
	}
	// A terminal is an index into the rank's own table; finalize's
	// relabel has no mapping for one past its end.
	if t := s.Grammar.MaxTerminal(); int(t) >= s.Table.Len() {
		return nil, fmt.Errorf("wire: snapshot grammar names terminal %d of a %d-entry cst", t, s.Table.Len())
	}
	flags, err := d.byteVal("snapshot flags")
	if err != nil {
		return nil, err
	}
	if flags&^(flagTiming|flagRaw) != 0 {
		return nil, fmt.Errorf("wire: unknown snapshot flags 0x%02x", flags)
	}
	if flags&flagTiming != 0 {
		if s.DurGrammar, err = d.grammar("snapshot duration grammar", true); err != nil {
			return nil, err
		}
		if s.IntGrammar, err = d.grammar("snapshot interval grammar", true); err != nil {
			return nil, err
		}
	}
	if flags&flagRaw != 0 {
		n, err := d.uvarint("snapshot raw capture count")
		if err != nil {
			return nil, err
		}
		// Each entry costs at least 3 body bytes: a one-byte signature
		// length prefix plus one varint byte per time value.
		if n > uint64(d.remaining())/3 {
			return nil, fmt.Errorf("wire: raw capture claims %d entries in %d bytes", n, d.remaining())
		}
		for i := uint64(0); i < n; i++ {
			if _, err := d.bytes("raw signature"); err != nil {
				return nil, err
			}
		}
		for i := uint64(0); i < n; i++ {
			if _, err := d.varint("raw start time"); err != nil {
				return nil, err
			}
			if _, err := d.varint("raw end time"); err != nil {
				return nil, err
			}
		}
	}
	return s, d.finish()
}
