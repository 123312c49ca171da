package wire

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.frame from the current encoders")

// aggregatedSnapshot is testSnapshot as an aggregated-timing run ships
// it: no timing grammars.
func aggregatedSnapshot() *core.Snapshot {
	s := testSnapshot()
	s.DurGrammar, s.IntGrammar = nil, nil
	return s
}

// goldenFrames is wire compatibility as data: one checked-in frame per
// message shape either protocol version puts on the stream. body builds
// it (for -update); recode decodes a body and encodes it again.
var goldenFrames = []struct {
	name   string
	typ    byte
	body   func() []byte
	recode func([]byte) ([]byte, error)
}{
	{"hello_v1", TypeHello, func() []byte {
		return (&Hello{Version: 1, RunID: "golden", WorldSize: 16, Rank: 3, Epoch: 7, TimingBase: 1.2}).Encode()
	}, recodeHello},
	{"hello_v2_echo", TypeHello, func() []byte {
		return (&Hello{Version: 2, RunID: "golden", WorldSize: 16, Rank: 3, Epoch: 7, TimingMode: 1, TimingBase: 1.2,
			SpanID: 0x1f2e3d4c5b6a7988, SendNs: 1_700_000_000_123_456_789,
			Echo: ClockEcho{T1: 1_700_000_000_000_000_001, T2: 1_700_000_000_000_150_000,
				T3: 1_700_000_000_000_190_000, T4: 1_700_000_000_000_300_000}}).Encode()
	}, recodeHello},
	{"snapshot_aggregated", TypeSnapshot, func() []byte { return EncodeSnapshot(aggregatedSnapshot()) }, recodeSnapshot},
	{"snapshot_lossy", TypeSnapshot, func() []byte { return EncodeSnapshot(testSnapshot()) }, recodeSnapshot},
	{"ack_v1", TypeAck, func() []byte {
		return (&Ack{Status: AckDuplicate, Detail: "rank 3 already merged"}).Encode()
	}, recodeAck},
	{"ack_v2", TypeAck, func() []byte {
		return (&Ack{Status: AckOK, RecvNs: 1_700_000_000_000_150_000, SendNs: 1_700_000_000_000_190_000}).Encode()
	}, recodeAck},
	{"nack", TypeNack, func() []byte {
		return (&Nack{Code: NackMaxConns, Detail: "collector at max-conns=8"}).Encode()
	}, func(b []byte) ([]byte, error) {
		n, err := DecodeNack(b)
		if err != nil {
			return nil, err
		}
		return n.Encode(), nil
	}},
	{"wait", TypeWait, func() []byte { return (&Wait{RunID: "golden"}).Encode() }, func(b []byte) ([]byte, error) {
		w, err := DecodeWait(b)
		if err != nil {
			return nil, err
		}
		return w.Encode(), nil
	}},
}

// rawCapture names the frames that are snapshots as older producers
// shipped them, with the raw verify capture no encoder writes any
// more: each recodes to its body's bytes, and -update leaves it as it
// is.
var rawCapture = map[string]bool{"snapshot_lossy": true}

func recodeHello(b []byte) ([]byte, error) {
	h, err := DecodeHello(b)
	if err != nil {
		return nil, err
	}
	return h.Encode(), nil
}

func recodeAck(b []byte) ([]byte, error) {
	a, err := DecodeAck(b)
	if err != nil {
		return nil, err
	}
	return a.Encode(), nil
}

func recodeSnapshot(b []byte) ([]byte, error) {
	s, err := DecodeSnapshot(b)
	if err != nil {
		return nil, err
	}
	return EncodeSnapshot(s), nil
}

// TestGoldenFrames: every checked-in frame still reads, decodes, and
// re-encodes to the bytes in the file — the encoders and the framing
// put the same bytes on the wire they did when the file was written.
// A rawCapture frame re-encodes to its bytes without the capture: up
// to it, with flagRaw cleared, and those are body's bytes.
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		path := filepath.Join("testdata", "golden", g.name+".frame")
		if *update && !rawCapture[g.name] {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, AppendFrame(nil, g.typ, g.body()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(want)
		typ, body, err := ReadFrame(rd)
		if err != nil || typ != g.typ || rd.Len() != 0 {
			t.Fatalf("%s: read: type 0x%02x (want 0x%02x), %d bytes left over, err %v", g.name, typ, g.typ, rd.Len(), err)
		}
		again, err := g.recode(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		if rawCapture[g.name] {
			if !withoutRaw(body, again) {
				t.Fatalf("%s: re-encoded body is not the checked-in one without its raw capture:\n got %x\nwant %x", g.name, again, body)
			}
			body = again
		} else if got := AppendFrame(nil, typ, again); !bytes.Equal(got, want) {
			t.Fatalf("%s: re-encoded frame differs from the checked-in one:\n got %x\nwant %x", g.name, got, want)
		}
		if fresh := g.body(); !bytes.Equal(fresh, body) {
			t.Fatalf("%s: the encoder now produces a different body:\n got %x\nwant %x", g.name, fresh, body)
		}
	}
}

// withoutRaw reports whether snapshot body short is snapshot body long
// without the raw capture it ends in: long's bytes up to it, but for
// the flags byte, which lacks flagRaw.
func withoutRaw(long, short []byte) bool {
	if len(short) >= len(long) {
		return false
	}
	flagBytes := 0
	for i, b := range short {
		if b != long[i] {
			if long[i]&^flagRaw != b || b&flagRaw != 0 {
				return false
			}
			flagBytes++
		}
	}
	return flagBytes == 1
}

// writeFrame3 is WriteFrame as it was before AppendFrame — header,
// body and checksum as three Writes — kept as the oracle.
func writeFrame3(w io.Writer, typ byte, body []byte) error {
	hdr := [5]byte{}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	crc := crc32.Update(crc32.Checksum([]byte{typ}, crcTable), crcTable, body)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	_, err := w.Write(tail[:])
	return err
}

// matchWriter checks what is written against want as it arrives, so
// comparing a MaxFrame-sized frame needs no second copy of it.
type matchWriter struct {
	want   []byte
	off    int
	writes int
	bad    bool
}

func (m *matchWriter) Write(p []byte) (int, error) {
	m.writes++
	if m.off+len(p) > len(m.want) || !bytes.Equal(p, m.want[m.off:m.off+len(p)]) {
		m.bad = true
	}
	m.off += len(p)
	return len(p), nil
}

func (m *matchWriter) matched() bool { return !m.bad && m.off == len(m.want) }

// TestAppendFrameMatchesOracle: AppendFrame (and WriteFrame on top of
// it, in a single Write) produce exactly the bytes the three-Write
// WriteFrame did, from the empty body to MaxFrame.
func TestAppendFrameMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 4, 5, 9, 255, 4095, 4096, 4097, 1<<20 + 3}
	for i := 0; i < 20; i++ {
		sizes = append(sizes, rng.Intn(1<<16))
	}
	if !testing.Short() {
		sizes = append(sizes, MaxFrame)
	}
	prefix := []byte("already in the buffer")
	for _, n := range sizes {
		body := make([]byte, n)
		rng.Read(body[:min(n, 1<<20)])
		for filled := 1 << 20; filled < n; filled *= 2 { // repeat the random megabyte
			copy(body[filled:], body[:filled])
		}
		typ := byte(TypeHello + rng.Intn(TypeNack-TypeHello+1))
		got := AppendFrame(append([]byte(nil), prefix...), typ, body)
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("%d-byte body: AppendFrame clobbered what dst held", n)
		}
		frame := got[len(prefix):]
		oracle := &matchWriter{want: frame}
		if err := writeFrame3(oracle, typ, body); err != nil || !oracle.matched() {
			t.Fatalf("%d-byte body: AppendFrame differs from the three-Write oracle (err %v)", n, err)
		}
		one := &matchWriter{want: frame}
		if err := WriteFrame(one, typ, body); err != nil || !one.matched() || one.writes != 1 {
			t.Fatalf("%d-byte body: WriteFrame made %d Writes (want 1), matched=%v, err %v", n, one.writes, one.matched(), err)
		}
	}
	if err := WriteFrame(io.Discard, TypeSnapshot, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("WriteFrame accepted a body over MaxFrame")
	}
}

// TestEncodeSizedExactly: the snapshot and hello bodies are sized
// before they are filled, so each encode is one allocation whatever
// optional sections the message carries.
func TestEncodeSizedExactly(t *testing.T) {
	for name, s := range map[string]*core.Snapshot{
		"lossy": testSnapshot(), "aggregated": aggregatedSnapshot(), "minimal": minimalSnapshot(),
	} {
		if b := EncodeSnapshot(s); cap(b) != len(b) {
			t.Fatalf("%s snapshot: body of %d bytes in a buffer of %d", name, len(b), cap(b))
		}
		if n := testing.AllocsPerRun(100, func() { EncodeSnapshot(s) }); n != 1 {
			t.Fatalf("%s snapshot: EncodeSnapshot allocates %v times, want 1", name, n)
		}
	}
	widest := &Hello{Version: Version, RunID: string(make([]byte, MaxRunID)), WorldSize: MaxWorldSize, Rank: MaxWorldSize - 1,
		Epoch: math.MaxUint64, TimingMode: 255, TimingBase: math.MaxFloat64, SpanID: math.MaxUint64, SendNs: math.MinInt64,
		Echo: ClockEcho{T1: math.MinInt64, T2: math.MinInt64, T3: math.MinInt64, T4: math.MinInt64}}
	if n := testing.AllocsPerRun(100, func() { widest.Encode() }); n != 1 {
		t.Fatalf("widest hello: Encode allocates %v times, want 1", n)
	}
}
