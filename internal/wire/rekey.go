package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Raw-frame helpers for replay tooling: a reader that preserves the
// verified frame bytes (so a captured journal can be re-sent verbatim,
// framing included), and the re-key patch that rewrites the run-ID
// field of a Hello frame — fixing the length header and recomputing
// the CRC32C trailer — without decoding anything past the ID. This is
// what lets the load generator amplify one captured stream onto
// thousands of synthetic run IDs at a cost of one small splice per
// hello, leaving the (much larger) snapshot frames untouched and
// shared across every amplified copy.

// frameOverhead is the fixed per-frame framing cost: the 4-byte length
// + 1-byte type header, plus the 4-byte CRC32C trailer.
const frameOverhead = 9

// ReadFrameRaw reads and verifies one frame like ReadFrame, but also
// returns the complete raw frame bytes (header + body + CRC), rebuilt
// around the verified body. The body slice aliases raw; both are
// freshly allocated per call, so callers may retain them — this is the
// capture/replay path, not the zero-alloc ingest loop (ReadFrameBuf).
func ReadFrameRaw(r io.Reader) (typ byte, raw, body []byte, err error) {
	typ, body, err = ReadFrame(r)
	if err != nil {
		return 0, nil, nil, err
	}
	raw = AppendFrame(make([]byte, 0, len(body)+frameOverhead), typ, body)
	return typ, raw, raw[5 : 5+len(body)], nil
}

// RekeyHelloFrame rewrites the run-ID field of a complete, valid Hello
// frame to runID, appending the re-keyed frame to dst and returning the
// extended slice. Only the framing prefix (length header), the version
// and run-ID fields, and the CRC32C trailer are touched; the remainder
// of the hello body — world size, rank, epoch, timing, span trailer —
// is copied verbatim without being decoded. The input frame's checksum
// is verified first, so a corrupt capture cannot be silently laundered
// into a frame with a fresh, valid CRC.
func RekeyHelloFrame(dst, frame []byte, runID string) ([]byte, error) {
	if len(runID) == 0 || len(runID) > MaxRunID {
		return nil, fmt.Errorf("wire: rekey run id length %d outside [1,%d]", len(runID), MaxRunID)
	}
	typ, body, after, err := SplitFrame(frame)
	if err != nil {
		return nil, fmt.Errorf("wire: rekey: %w", err)
	}
	if typ != TypeHello || len(after) != 0 {
		return nil, fmt.Errorf("wire: rekey: frame type 0x%02x with %d bytes after it is not one hello", typ, len(after))
	}
	// The hello body opens with: version uvarint, run-ID length uvarint,
	// run-ID bytes. Everything after the old ID passes through untouched.
	_, vn := binary.Uvarint(body)
	if vn <= 0 {
		return nil, fmt.Errorf("wire: rekey: truncated hello version")
	}
	oldLen, ln := binary.Uvarint(body[vn:])
	if ln <= 0 || oldLen > uint64(len(body)-vn-ln) {
		return nil, fmt.Errorf("wire: rekey: truncated hello run id")
	}
	rest := body[vn+ln+int(oldLen):]

	newLen := vn + len(binary.AppendUvarint(nil, uint64(len(runID)))) + len(runID) + len(rest)
	if newLen > MaxFrame {
		return nil, fmt.Errorf("wire: rekey: patched body of %d bytes exceeds cap", newLen)
	}
	start := len(dst)
	dst = append(binary.LittleEndian.AppendUint32(dst, uint32(newLen)), TypeHello)
	dst = append(dst, body[:vn]...)
	dst = binary.AppendUvarint(dst, uint64(len(runID)))
	dst = append(dst, runID...)
	dst = append(dst, rest...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start+4:], crcTable)), nil
}
