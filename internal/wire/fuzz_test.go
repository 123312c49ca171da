package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot hammers the snapshot decoder with mutated
// inputs. The invariants: never panic, never accept-and-crash later
// (anything returned must expand/relabel safely), and allocation stays
// bounded by the input size (enforced structurally: every count is
// checked against remaining bytes before allocation).
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(EncodeSnapshot(testSnapshot()))
	f.Add(EncodeSnapshot(minimalSnapshot()))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(withEntryCount(testSnapshot(), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// A decoded snapshot must be internally safe: the grammar
		// validated, so walking its input length cannot loop, and every
		// CST accessor stays in range.
		_ = s.Grammar.InputLen()
		for i := 0; i < s.Table.Len(); i++ {
			_ = s.Table.Sig(int32(i))
			_ = s.Table.AvgDuration(int32(i))
		}
	})
}

// FuzzRekeyHelloFrame hammers the load-generator re-key path: for any
// input bytes and replacement ID, RekeyHelloFrame must never panic, and
// anything it accepts must round-trip ReadFrame with a valid CRC and
// decode to the same hello modulo the run ID.
func FuzzRekeyHelloFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, TypeHello, (&Hello{Version: Version, RunID: "fuzz", WorldSize: 8, Rank: 3, Epoch: 7, TimingBase: 1.2, SpanID: 9, SendNs: 123}).Encode())
	f.Add(buf.Bytes(), "amplified-000017")
	buf.Reset()
	WriteFrame(&buf, TypeHello, (&Hello{Version: 1, RunID: "r", WorldSize: 1, Rank: 0}).Encode())
	f.Add(buf.Bytes(), "x")
	f.Add([]byte{}, "id")
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, TypeHello, 0x00, 0x00, 0x00, 0x00}, "id")
	f.Fuzz(func(t *testing.T, frame []byte, runID string) {
		out, err := RekeyHelloFrame(nil, frame, runID)
		if err != nil {
			return
		}
		typ, body, err := ReadFrame(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-keyed frame rejected by ReadFrame: %v", err)
		}
		if typ != TypeHello {
			t.Fatalf("re-keyed frame has type 0x%02x", typ)
		}
		got, err := DecodeHello(body)
		if err != nil {
			// The input was a valid *frame* but need not hold a decodable
			// hello beyond the version+ID prefix the splice parses; only
			// inputs that decoded before must decode after.
			if _, _, rerr := ReadFrame(bytes.NewReader(frame)); rerr == nil {
				if _, derr := DecodeHello(frame[5 : len(frame)-4]); derr == nil {
					t.Fatalf("re-key broke a decodable hello: %v", err)
				}
			}
			return
		}
		if got.RunID != runID {
			t.Fatalf("re-keyed hello carries run id %q, want %q", got.RunID, runID)
		}
		orig, derr := DecodeHello(frame[5 : len(frame)-4])
		if derr == nil {
			want := *orig
			want.RunID = runID
			if *got != want {
				t.Fatalf("re-key changed more than the run id: %+v vs %+v", got, &want)
			}
		}
	})
}

// FuzzReadFrame hammers the frame reader: no panic, and anything it
// accepts must re-frame to bytes the reader accepts again.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, TypeHello, (&Hello{Version: Version, RunID: "fuzz", WorldSize: 2, Rank: 0, TimingBase: 1.2}).Encode())
	f.Add(buf.Bytes())
	buf.Reset()
	WriteFrame(&buf, TypeSnapshot, EncodeSnapshot(minimalSnapshot()))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, TypeSnapshot})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, body); err != nil {
			t.Fatalf("re-frame of accepted frame failed: %v", err)
		}
		typ2, body2, err := ReadFrame(&out)
		if err != nil || typ2 != typ || !bytes.Equal(body2, body) {
			t.Fatalf("re-framed frame not stable: %v", err)
		}
	})
}
