// Package wire is the network serialization of Pilgrim's trace
// collection protocol: a versioned, length-prefixed, CRC32C-framed
// binary encoding of crash-consistent tracer snapshots
// (core.Snapshot) plus the small control messages the collector
// protocol needs (hello, ack, wait, trace, error).
//
// Framing: every message on the stream is one frame
//
//	[4B little-endian body length][1B frame type][body][4B CRC32C]
//
// where the checksum (Castagnoli polynomial) covers the type byte and
// the body. The reader rejects unknown types, oversized lengths, and
// checksum mismatches, and reads bodies in bounded chunks so a
// corrupt length field fails at EOF instead of exhausting memory —
// the same discipline as the trace-file reader.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/hpcrepro/pilgrim/internal/trace"
)

// Version is the protocol version carried in every Hello; a collector
// rejects versions it does not speak. Version 2 appends the span
// context and clock-sample fields to Hello and Ack; a collector
// accepts any version down to MinVersion, replying in kind (a
// version-1 hello gets a version-1-shaped ack), so old producers keep
// working byte-identically against a new collector.
const Version = 2

// MinVersion is the oldest protocol version the collector accepts.
const MinVersion = 1

// Frame types.
const (
	TypeHello    = 0x01 // client → collector: announce (run, rank, epoch)
	TypeSnapshot = 0x02 // client → collector: one rank's snapshot
	TypeAck      = 0x03 // collector → client: per-snapshot outcome
	TypeWait     = 0x04 // client → collector: block until run finalizes
	TypeTrace    = 0x05 // collector → client: the finalized trace file bytes
	TypeError    = 0x06 // collector → client: terminal protocol error
	TypeNack     = 0x07 // collector → client: admission refusal (over a configured limit)
)

// MaxFrame bounds one frame's body. Snapshots of realistic runs are
// far smaller (the whole point of the tracer is that state stays
// compressed); anything larger is corruption or abuse.
const MaxFrame = 1 << 28 // 256 MiB

// MaxRunID bounds the run identifier string.
const MaxRunID = 256

// MaxWorldSize mirrors the trace reader's rank-count sanity cap.
const MaxWorldSize = 1 << 24

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one frame — header, body, CRC — to dst and
// returns the extended slice. A sender that builds its frames into one
// reused buffer puts a whole exchange on the wire with a single Write.
// The caller bounds len(body) by MaxFrame (WriteFrame checks it).
func AppendFrame(dst []byte, typ byte, body []byte) []byte {
	at := len(dst)
	return sealFrame(append(append(dst, 0, 0, 0, 0, typ), body...), at)
}

// AppendHelloFrame appends h's hello frame to dst, as AppendFrame of
// h.Encode() does, with the body encoded in place.
func AppendHelloFrame(dst []byte, h *Hello) []byte {
	at := len(dst)
	return sealFrame(h.Append(append(dst, 0, 0, 0, 0, TypeHello)), at)
}

// sealFrame completes the frame at dst[at:], its length left zero and
// its type and body in place: it writes the length and appends the
// CRC32C of the type and the body.
func sealFrame(dst []byte, at int) []byte {
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-5))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[at+4:], crcTable))
}

// SplitFrame parses the frame at the head of b in place, the mirror of
// AppendFrame: body aliases b and rest is what follows the frame. It
// makes every check ReadFrame makes (type range, MaxFrame, CRC32C) and
// bounds the length by the bytes present.
func SplitFrame(b []byte) (typ byte, body, rest []byte, err error) {
	if len(b) < 5 {
		return 0, nil, nil, fmt.Errorf("wire: frame header: %w", io.ErrUnexpectedEOF)
	}
	n := binary.LittleEndian.Uint32(b)
	typ = b[4]
	if typ < TypeHello || typ > TypeNack {
		return 0, nil, nil, fmt.Errorf("wire: unknown frame type 0x%02x", typ)
	}
	if n > MaxFrame {
		return 0, nil, nil, fmt.Errorf("wire: frame body of %d bytes exceeds cap", n)
	}
	end := 5 + int(n)
	if len(b)-4 < end {
		return 0, nil, nil, fmt.Errorf("wire: frame claims a %d-byte body, %d bytes follow its header: %w", n, len(b)-5, io.ErrUnexpectedEOF)
	}
	// Type byte and body are contiguous, so the checksum is one pass.
	if crc32.Checksum(b[4:end], crcTable) != binary.LittleEndian.Uint32(b[end:]) {
		return 0, nil, nil, fmt.Errorf("wire: frame type 0x%02x checksum mismatch", typ)
	}
	return typ, b[5:end], b[end+4:], nil
}

// WriteFrame writes one frame with a single Write.
func WriteFrame(w io.Writer, typ byte, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("wire: frame body of %d bytes exceeds cap", len(body))
	}
	_, err := w.Write(AppendFrame(make([]byte, 0, len(body)+9), typ, body))
	return err
}

// ReadFrame reads and verifies one frame. It never allocates more
// than a bounded chunk beyond what the stream actually delivers.
func ReadFrame(r io.Reader) (typ byte, body []byte, err error) {
	return ReadFrameBuf(r, nil)
}

// ReadFrameBuf is ReadFrame with a caller-owned scratch buffer: when
// buf has capacity for the frame body, the returned body aliases it
// and the read allocates nothing. A connection loop that passes the
// previous call's body back in amortizes the per-frame allocation to
// zero once the buffer has grown to the stream's frame sizes — the
// same scratch discipline as sig.Encoder.EncodeTo. The body is only
// valid until the next ReadFrameBuf call that reuses the buffer.
func ReadFrameBuf(r io.Reader, buf []byte) (typ byte, body []byte, err error) {
	var h frameHdr
	return readFrameInto(r, buf, &h)
}

// frameHdr is the fixed-size per-frame scratch: length/type header,
// CRC tail, and the one-byte checksum seed. These escape into
// io.ReadFull, so a caller that keeps one across frames (DecodeScratch
// does) makes the read itself allocation-free; a local works too, it
// just costs the escapes.
type frameHdr struct {
	hdr  [5]byte
	tail [4]byte
	seed [1]byte
}

func readFrameInto(r io.Reader, buf []byte, h *frameHdr) (typ byte, body []byte, err error) {
	if _, err := io.ReadFull(r, h.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(h.hdr[:4])
	typ = h.hdr[4]
	if typ < TypeHello || typ > TypeNack {
		return 0, nil, fmt.Errorf("wire: unknown frame type 0x%02x", typ)
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame body of %d bytes exceeds cap", n)
	}
	// Chunked read: a lying length field under the cap but past the
	// stream's real end fails at EOF having allocated at most one
	// chunk too much. Scratch capacity is consumed before any growth,
	// so a warm buffer makes the whole read allocation-free.
	const chunk = 1 << 20
	body = buf[:0]
	for remaining := int(n); remaining > 0; {
		step := remaining
		if step > chunk {
			step = chunk
		}
		start := len(body)
		if cap(body)-start >= step {
			body = body[:start+step]
		} else {
			body = append(body, make([]byte, step)...)
		}
		if _, err := io.ReadFull(r, body[start:]); err != nil {
			return 0, nil, err
		}
		remaining -= step
	}
	if _, err := io.ReadFull(r, h.tail[:]); err != nil {
		return 0, nil, err
	}
	want := binary.LittleEndian.Uint32(h.tail[:])
	h.seed[0] = typ
	got := crc32.Update(crc32.Checksum(h.seed[:], crcTable), crcTable, body)
	if got != want {
		return 0, nil, fmt.Errorf("wire: frame type 0x%02x checksum mismatch", typ)
	}
	return typ, body, nil
}

// --- bounded decoder ---------------------------------------------------------

// dec is a position-tracked reader over one frame body with the
// error-instead-of-panic discipline every untrusted-input path needs.
type dec struct {
	b   []byte
	pos int
}

func (d *dec) remaining() int { return len(d.b) - d.pos }

func (d *dec) uvarint(what string) (uint64, error) {
	v, k := binary.Uvarint(d.b[d.pos:])
	if k <= 0 {
		return 0, fmt.Errorf("wire: truncated %s", what)
	}
	d.pos += k
	return v, nil
}

func (d *dec) varint(what string) (int64, error) {
	v, k := binary.Varint(d.b[d.pos:])
	if k <= 0 {
		return 0, fmt.Errorf("wire: truncated %s", what)
	}
	d.pos += k
	return v, nil
}

// bytes reads a uvarint-length-prefixed byte string, bounded by what
// the body actually holds (so a corrupt length can never allocate
// past the frame).
func (d *dec) bytes(what string) ([]byte, error) {
	n, err := d.uvarint(what + " length")
	if err != nil {
		return nil, err
	}
	if n > uint64(d.remaining()) {
		return nil, fmt.Errorf("wire: %s of %d bytes exceeds %d remaining", what, n, d.remaining())
	}
	out := d.b[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return out, nil
}

func (d *dec) byteVal(what string) (byte, error) {
	if d.remaining() < 1 {
		return 0, fmt.Errorf("wire: truncated %s", what)
	}
	v := d.b[d.pos]
	d.pos++
	return v, nil
}

func (d *dec) finish() error {
	if d.pos != len(d.b) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.b)-d.pos)
	}
	return nil
}

// --- Hello -------------------------------------------------------------------

// ClockEcho is one completed NTP-style exchange reported back to the
// collector: T1 client hello send, T2 collector hello receipt, T3
// collector ack send (both from the ack's timestamps), T4 client ack
// receipt. All unix nanoseconds on the respective clocks; the zero
// value means "no sample".
type ClockEcho struct {
	T1, T2, T3, T4 int64
}

// Valid reports whether the echo carries a plausible sample: both
// clocks move forward within their own frame, and the round trip is
// not shorter than the server's hold time.
func (e ClockEcho) Valid() bool {
	return e.T1 > 0 && e.T2 > 0 && e.T4 >= e.T1 && e.T3 >= e.T2 &&
		(e.T4-e.T1) >= (e.T3-e.T2)
}

// Hello announces one rank's snapshot upload: which run it belongs
// to, the run's world size and tracing options (so the collector can
// finalize without out-of-band configuration), and the send epoch
// that keys idempotent re-sends.
//
// Version 2 adds the live-observability trailer: the client's span ID
// (so the collector can link its ingest spans to the producer's send
// span), the hello's send timestamp (T1 of the clock exchange), and
// the echo of the previously completed exchange, which feeds the
// collector's clock-offset estimator. Version-1 peers simply omit the
// trailer; all trailer fields decode as zero.
type Hello struct {
	Version    uint32
	RunID      string
	WorldSize  int
	Rank       int
	Epoch      uint64
	TimingMode uint8
	TimingBase float64

	SpanID uint64    // producer's send-span ID; 0 when absent
	SendNs int64     // client clock at hello send (T1); 0 when absent
	Echo   ClockEcho // previously completed exchange; zero when absent
}

// MaxHelloLen is the most bytes the body of a hello DecodeHello accepts
// takes with a run id of n bytes, every other field at its widest:
// AppendHelloFrame into a buffer with this and the framing's 9 bytes
// free does not grow it.
func MaxHelloLen(n int) int { return n + 96 }

// Encode serializes the hello body, in one allocation.
func (h *Hello) Encode() []byte { return h.Append(make([]byte, 0, MaxHelloLen(len(h.RunID)))) }

// Append appends the hello body to b.
func (h *Hello) Append(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(h.Version))
	b = binary.AppendUvarint(b, uint64(len(h.RunID)))
	b = append(b, h.RunID...)
	b = binary.AppendUvarint(b, uint64(h.WorldSize))
	b = binary.AppendUvarint(b, uint64(h.Rank))
	b = binary.AppendUvarint(b, h.Epoch)
	b = append(b, h.TimingMode)
	b = binary.AppendUvarint(b, math.Float64bits(h.TimingBase))
	if h.Version >= 2 {
		b = binary.AppendUvarint(b, h.SpanID)
		b = binary.AppendVarint(b, h.SendNs)
		b = binary.AppendVarint(b, h.Echo.T1)
		b = binary.AppendVarint(b, h.Echo.T2)
		b = binary.AppendVarint(b, h.Echo.T3)
		b = binary.AppendVarint(b, h.Echo.T4)
	}
	return b
}

// DecodeHello parses and validates a hello body.
func DecodeHello(body []byte) (*Hello, error) {
	d := &dec{b: body}
	h := &Hello{}
	v, err := d.uvarint("hello version")
	if err != nil {
		return nil, err
	}
	if v < MinVersion || v > Version {
		return nil, fmt.Errorf("wire: unsupported protocol version %d (speak %d..%d)", v, MinVersion, Version)
	}
	h.Version = uint32(v)
	id, err := d.bytes("hello run id")
	if err != nil {
		return nil, err
	}
	if len(id) == 0 || len(id) > MaxRunID {
		return nil, fmt.Errorf("wire: run id length %d outside [1,%d]", len(id), MaxRunID)
	}
	h.RunID = string(id)
	world, err := d.uvarint("hello world size")
	if err != nil {
		return nil, err
	}
	if world < 1 || world > MaxWorldSize {
		return nil, fmt.Errorf("wire: world size %d outside [1,%d]", world, MaxWorldSize)
	}
	h.WorldSize = int(world)
	rank, err := d.uvarint("hello rank")
	if err != nil {
		return nil, err
	}
	if rank >= world {
		return nil, fmt.Errorf("wire: rank %d outside world of %d", rank, world)
	}
	h.Rank = int(rank)
	if h.Epoch, err = d.uvarint("hello epoch"); err != nil {
		return nil, err
	}
	if h.TimingMode, err = d.byteVal("hello timing mode"); err != nil {
		return nil, err
	}
	bits, err := d.uvarint("hello timing base")
	if err != nil {
		return nil, err
	}
	h.TimingBase = math.Float64frombits(bits)
	if math.IsNaN(h.TimingBase) || math.IsInf(h.TimingBase, 0) || h.TimingBase < 0 {
		return nil, fmt.Errorf("wire: implausible timing base %v", h.TimingBase)
	}
	if err := trace.CheckTiming(h.TimingMode, trace.DefaultBase(h.TimingBase)); err != nil {
		return nil, fmt.Errorf("wire: hello: %w", err)
	}
	// The observability trailer is optional even at version 2: a v2
	// hello without it decodes with zero span context.
	if h.Version >= 2 && d.remaining() > 0 {
		if h.SpanID, err = d.uvarint("hello span id"); err != nil {
			return nil, err
		}
		if h.SendNs, err = d.varint("hello send ts"); err != nil {
			return nil, err
		}
		for _, p := range []*int64{&h.Echo.T1, &h.Echo.T2, &h.Echo.T3, &h.Echo.T4} {
			if *p, err = d.varint("hello clock echo"); err != nil {
				return nil, err
			}
		}
	}
	return h, d.finish()
}

// --- Ack ---------------------------------------------------------------------

// Ack statuses.
const (
	AckOK        = 0 // snapshot ingested
	AckDuplicate = 1 // (run, rank, epoch) already ingested — safe re-send
	AckError     = 2 // rejected; Detail explains
)

// Ack is the collector's per-snapshot response. The timestamps
// (collector clock, unix ns) are the NTP-style T2/T3 of the exchange:
// RecvNs is when the hello arrived, SendNs when the ack was written.
// The collector only appends them when the hello spoke version >= 2,
// so a version-1 client's DecodeAck (which rejects trailing bytes)
// keeps working unchanged.
type Ack struct {
	Status uint8
	Detail string
	RecvNs int64 // collector clock at hello receipt (T2); 0 when absent
	SendNs int64 // collector clock at ack send (T3); 0 when absent
}

// Encode serializes the ack body.
func (a *Ack) Encode() []byte {
	b := []byte{a.Status}
	b = binary.AppendUvarint(b, uint64(len(a.Detail)))
	b = append(b, a.Detail...)
	if a.RecvNs != 0 || a.SendNs != 0 {
		b = binary.AppendVarint(b, a.RecvNs)
		b = binary.AppendVarint(b, a.SendNs)
	}
	return b
}

// DecodeAck parses an ack body.
func DecodeAck(body []byte) (*Ack, error) {
	d := &dec{b: body}
	st, err := d.byteVal("ack status")
	if err != nil {
		return nil, err
	}
	if st > AckError {
		return nil, fmt.Errorf("wire: unknown ack status %d", st)
	}
	detail, err := d.bytes("ack detail")
	if err != nil {
		return nil, err
	}
	a := &Ack{Status: st, Detail: string(detail)}
	if d.remaining() > 0 {
		if a.RecvNs, err = d.varint("ack recv ts"); err != nil {
			return nil, err
		}
		if a.SendNs, err = d.varint("ack send ts"); err != nil {
			return nil, err
		}
	}
	return a, d.finish()
}

// --- Wait --------------------------------------------------------------------

// Wait asks the collector to respond with the run's finalized trace
// (a Trace frame) once every rank has reported or the straggler
// deadline salvaged the run.
type Wait struct {
	RunID string
}

// Encode serializes the wait body.
func (w *Wait) Encode() []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(w.RunID)))
	return append(b, w.RunID...)
}

// DecodeWait parses a wait body.
func DecodeWait(body []byte) (*Wait, error) {
	d := &dec{b: body}
	id, err := d.bytes("wait run id")
	if err != nil {
		return nil, err
	}
	if len(id) == 0 || len(id) > MaxRunID {
		return nil, fmt.Errorf("wire: run id length %d outside [1,%d]", len(id), MaxRunID)
	}
	return &Wait{RunID: string(id)}, d.finish()
}

// --- Nack --------------------------------------------------------------------

// Nack codes: which admission limit the collector refused on.
const (
	NackMaxRuns  = 0 // concurrent-run cap reached, new run refused
	NackRunBytes = 1 // per-run ingest byte budget exhausted
	NackMaxConns = 2 // connection cap reached, connection refused
)

// Nack is the collector's typed admission refusal: the daemon is
// healthy but a configured limit is in force. Unlike a transport
// failure it must NOT be retried — the producer's correct degradation
// is local finalize — so the client surfaces it as a permanent,
// typed error instead of feeding it to the backoff loop.
type Nack struct {
	Code   uint8
	Detail string
}

// Encode serializes the nack body.
func (n *Nack) Encode() []byte {
	b := []byte{n.Code}
	b = binary.AppendUvarint(b, uint64(len(n.Detail)))
	return append(b, n.Detail...)
}

// DecodeNack parses a nack body.
func DecodeNack(body []byte) (*Nack, error) {
	d := &dec{b: body}
	code, err := d.byteVal("nack code")
	if err != nil {
		return nil, err
	}
	if code > NackMaxConns {
		return nil, fmt.Errorf("wire: unknown nack code %d", code)
	}
	detail, err := d.bytes("nack detail")
	if err != nil {
		return nil, err
	}
	return &Nack{Code: code, Detail: string(detail)}, d.finish()
}

// NackCodeString names a nack code for logs and errors.
func NackCodeString(code uint8) string {
	switch code {
	case NackMaxRuns:
		return "max-runs"
	case NackRunBytes:
		return "max-run-bytes"
	case NackMaxConns:
		return "max-conns"
	default:
		return fmt.Sprintf("code-%d", code)
	}
}
