package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

// testSnapshot builds a representative snapshot: a CST with repeat
// hits (non-trivial duration sums), a grammar with structure, timing
// grammars, and a raw verify capture.
func testSnapshot() *core.Snapshot {
	table := cst.New()
	terms := []int32{
		table.Add([]byte("sig-send"), 3),
		table.Add([]byte("sig-recv"), 4),
		table.Add([]byte("sig-allreduce"), 11),
	}
	table.Add([]byte("sig-send"), 4) // sum 7 over 2 calls: avg form rounds
	g := sequitur.New()
	for i := 0; i < 6; i++ {
		g.Append(terms[i%3])
	}
	dg := sequitur.New()
	ig := sequitur.New()
	for i := 0; i < 4; i++ {
		dg.Append(int32(i % 2))
		ig.Append(int32(i % 3))
	}
	return &core.Snapshot{
		Rank:       5,
		Calls:      6,
		IntraNs:    12345,
		Table:      table,
		Grammar:    sequitur.Serialized(g.Serialize()),
		DurGrammar: sequitur.Serialized(dg.Serialize()),
		IntGrammar: sequitur.Serialized(ig.Serialize()),
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := testSnapshot()
	got, err := DecodeSnapshot(EncodeSnapshot(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != want.Rank || got.Calls != want.Calls || got.IntraNs != want.IntraNs {
		t.Fatalf("header fields differ: %+v", got)
	}
	if !bytes.Equal(got.Table.AppendExact(nil), want.Table.AppendExact(nil)) {
		t.Fatal("CST not exactly preserved")
	}
	if !reflect.DeepEqual(got.Grammar, want.Grammar) ||
		!reflect.DeepEqual(got.DurGrammar, want.DurGrammar) ||
		!reflect.DeepEqual(got.IntGrammar, want.IntGrammar) {
		t.Fatal("grammars differ")
	}
}

// TestSnapshotRawCaptureDropped: a body carrying an older producer's
// raw verify capture decodes to the snapshot without it, which
// re-encodes without it; cut anywhere inside the capture, it is
// refused.
func TestSnapshotRawCaptureDropped(t *testing.T) {
	base := EncodeSnapshot(minimalSnapshot())
	body := append(append([]byte(nil), base[:len(base)-1]...), flagRaw) // its flags byte is last
	body = binary.AppendUvarint(body, 2)
	for _, sig := range []string{"sig-send", "sig-recv"} {
		body = append(binary.AppendUvarint(body, uint64(len(sig))), sig...)
	}
	for _, v := range []int64{10, 13, 20, 24} {
		body = binary.AppendVarint(body, v)
	}
	got, err := DecodeSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	if again := EncodeSnapshot(got); !bytes.Equal(again, base) {
		t.Fatalf("re-encoded %x, want %x", again, base)
	}
	for cut := len(base); cut < len(body); cut++ {
		if _, err := DecodeSnapshot(body[:cut]); err == nil {
			t.Fatalf("raw capture cut at %d/%d accepted", cut, len(body))
		}
	}
}

// minimalSnapshot is an empty rank's snapshot: empty table, the
// one-empty-rule grammar, no optional sections.
func minimalSnapshot() *core.Snapshot {
	return &core.Snapshot{
		Rank:    0,
		Table:   cst.New(),
		Grammar: sequitur.Serialized(sequitur.New().Serialize()),
	}
}

func TestSnapshotRoundTripMinimal(t *testing.T) {
	got, err := DecodeSnapshot(EncodeSnapshot(minimalSnapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if got.DurGrammar != nil || got.IntGrammar != nil {
		t.Fatal("optional sections materialized from nothing")
	}
}

func TestSnapshotDecodeTruncation(t *testing.T) {
	full := EncodeSnapshot(testSnapshot())
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeSnapshot(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), full...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestSnapshotDecodeBitFlipsNeverPanic(t *testing.T) {
	full := EncodeSnapshot(testSnapshot())
	for i := range full {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[i] ^= byte(1 << bit)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on flip byte %d bit %d: %v", i, bit, r)
					}
				}()
				DecodeSnapshot(mut)
			}()
		}
	}
}

// TestSnapshotRawCountOverClaimRejected: the raw-capture count must be
// bounded by remaining/3 (each entry costs ≥3 body bytes), so a small
// frame claiming a huge count is rejected by the bound check itself —
// before any count-sized allocation — not by a later truncation error.
func TestSnapshotRawCountOverClaimRejected(t *testing.T) {
	base := EncodeSnapshot(minimalSnapshot())
	// Rewrite the trailing flags byte (0 for a minimal snapshot) to
	// announce a raw capture, then claim one entry per remaining byte —
	// the old ≤remaining bound accepted this and pre-allocated ~32
	// bytes of slice headers per claimed entry.
	body := append(append([]byte(nil), base[:len(base)-1]...), flagRaw)
	const filler = 300
	body = binary.AppendUvarint(body, filler)
	body = append(body, make([]byte, filler)...)
	_, err := DecodeSnapshot(body)
	if err == nil {
		t.Fatal("over-claimed raw capture count accepted")
	}
	if !strings.Contains(err.Error(), "raw capture claims") {
		t.Fatalf("rejected by %q, want the allocation bound check", err)
	}
}

// TestSnapshotTerminalBeyondTableRejected: a grammar terminal is an
// index into the snapshot's own CST, so a well-formed frame naming one
// past the table's end is refused where the table is decoded — before
// the collector acks and journals a snapshot its finalize cannot
// relabel, and where a journal or spill pair is read back.
func TestSnapshotTerminalBeyondTableRejected(t *testing.T) {
	s := minimalSnapshot()
	s.Table.Add([]byte("sig-only"), 1)
	g := sequitur.New()
	g.Append(0)
	g.Append(7)
	s.Grammar = sequitur.Serialized(g.Serialize())
	body := EncodeSnapshot(s)
	_, err := DecodeSnapshot(body)
	if err == nil || !strings.Contains(err.Error(), "names terminal 7 of a 1-entry cst") {
		t.Fatalf("terminal 7 against a 1-entry table: %v", err)
	}
	hello := &Hello{Version: Version, RunID: "hostile", WorldSize: 1}
	pair := AppendFrame(AppendFrame(nil, TypeHello, hello.Encode()), TypeSnapshot, body)
	if _, _, err := DecodePair(pair); err == nil {
		t.Fatal("pair decoded with its table accepted the terminal")
	}

	// The largest terminal the table does hold is fine.
	g = sequitur.New()
	g.AppendRun(0, 3)
	s.Grammar = sequitur.Serialized(g.Serialize())
	if _, err := DecodeSnapshot(EncodeSnapshot(s)); err != nil {
		t.Fatal(err)
	}
}

// withEntryCount is s encoded with its CST entry 0's call count
// replaced by count: the bytes a hostile or broken producer could send.
func withEntryCount(s *core.Snapshot, count int64) []byte {
	body, tb := EncodeSnapshot(s), s.Table.AppendExact(nil)
	at := bytes.Index(body, tb)
	prefix := len(binary.AppendUvarint(nil, uint64(len(tb))))
	// Entry 0 follows the entry count; its count follows its signature.
	n, k := binary.Uvarint(tb)
	l, m := binary.Uvarint(tb[k:])
	if n == 0 || at < prefix {
		panic("snapshot has no CST entry to patch")
	}
	c := k + m + int(l)
	_, old := binary.Varint(tb[c:])
	patched := binary.AppendVarint(append([]byte(nil), tb[:c]...), count)
	patched = append(patched, tb[c+old:]...)
	out := binary.AppendUvarint(append([]byte(nil), body[:at-prefix]...), uint64(len(patched)))
	out = append(out, patched...)
	return append(out, body[at+len(tb):]...)
}

// TestSnapshotUncalledEntryRejected: every CST entry was called at
// least once, and the trace reader refuses a table that says otherwise,
// so the snapshot decoder refuses it too: a collector that acked it
// would finalize a trace no reader can open.
func TestSnapshotUncalledEntryRejected(t *testing.T) {
	for _, count := range []int64{0, -5} {
		if _, err := DecodeSnapshot(withEntryCount(testSnapshot(), count)); err == nil {
			t.Errorf("CST entry of %d calls accepted", count)
		}
	}
	if _, err := DecodeSnapshot(withEntryCount(testSnapshot(), 2)); err != nil {
		t.Fatalf("the unpatched count, written again: %v", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := map[byte][]byte{
		TypeHello:    (&Hello{Version: Version, RunID: "r", WorldSize: 4, Rank: 1, TimingBase: 1.2}).Encode(),
		TypeSnapshot: EncodeSnapshot(testSnapshot()),
		TypeAck:      (&Ack{Status: AckDuplicate, Detail: "already have rank 1"}).Encode(),
		TypeWait:     (&Wait{RunID: "r"}).Encode(),
		TypeTrace:    []byte("PILGRIM1..."),
		TypeError:    []byte("boom"),
	}
	for typ, body := range bodies {
		if err := WriteFrame(&buf, typ, body); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[byte][]byte{}
	for range bodies {
		typ, body, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		seen[typ] = body
	}
	for typ, want := range bodies {
		if !bytes.Equal(seen[typ], want) {
			t.Fatalf("type 0x%02x body mismatch", typ)
		}
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeSnapshot, EncodeSnapshot(testSnapshot())); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload byte: CRC must catch it.
	mut := append([]byte(nil), raw...)
	mut[7] ^= 0x40
	if _, _, err := ReadFrame(bytes.NewReader(mut)); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	// Truncate at every prefix: must error, never panic or hang.
	for cut := 0; cut < len(raw); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) accepted", cut, len(raw))
		}
	}
}

func TestFrameOversizedLengthRejected(t *testing.T) {
	hdr := make([]byte, 5)
	binary.LittleEndian.PutUint32(hdr, MaxFrame+1)
	hdr[4] = TypeSnapshot
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized length accepted")
	}
	// A huge-but-capped length over a short stream must fail at EOF
	// without allocating the full claim.
	binary.LittleEndian.PutUint32(hdr, MaxFrame)
	if _, _, err := ReadFrame(bytes.NewReader(append(hdr, make([]byte, 64)...))); err == nil {
		t.Fatal("lying length accepted")
	}
}

func TestFrameUnknownTypeRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 0x7F, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("unknown frame type accepted")
	}
}

func TestHelloRoundTripAndValidation(t *testing.T) {
	want := &Hello{Version: Version, RunID: "run-42", WorldSize: 16, Rank: 15,
		Epoch: 7, TimingMode: 1, TimingBase: 1.2}
	got, err := DecodeHello(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}

	bad := []*Hello{
		{Version: Version + 1, RunID: "r", WorldSize: 2, Rank: 0, TimingBase: 1},
		{Version: Version, RunID: "", WorldSize: 2, Rank: 0, TimingBase: 1},
		{Version: Version, RunID: "r", WorldSize: 2, Rank: 2, TimingBase: 1},
		{Version: Version, RunID: "r", WorldSize: 0, Rank: 0, TimingBase: 1},
		{Version: Version, RunID: "r", WorldSize: MaxWorldSize + 1, Rank: 0, TimingBase: 1},
		{Version: Version, RunID: "r", WorldSize: 2, Rank: 0, TimingBase: math.Inf(1)},
		{Version: Version, RunID: "r", WorldSize: 2, Rank: 0, TimingMode: 1, TimingBase: 1},
		{Version: Version, RunID: "r", WorldSize: 2, Rank: 0, TimingMode: 5},
	}
	for i, h := range bad {
		if _, err := DecodeHello(h.Encode()); err == nil {
			t.Fatalf("bad hello %d accepted", i)
		}
	}
	// Base 0 is the default base.
	if _, err := DecodeHello((&Hello{Version: Version, RunID: "r", WorldSize: 2, TimingMode: 1}).Encode()); err != nil {
		t.Fatalf("lossy hello at the default base: %v", err)
	}
}

func TestAckWaitRoundTrip(t *testing.T) {
	a, err := DecodeAck((&Ack{Status: AckError, Detail: "epoch mismatch"}).Encode())
	if err != nil || a.Status != AckError || a.Detail != "epoch mismatch" {
		t.Fatalf("ack round trip: %+v, %v", a, err)
	}
	if _, err := DecodeAck([]byte{9, 0}); err == nil {
		t.Fatal("unknown ack status accepted")
	}
	w, err := DecodeWait((&Wait{RunID: "abc"}).Encode())
	if err != nil || w.RunID != "abc" {
		t.Fatalf("wait round trip: %+v, %v", w, err)
	}
	if _, err := DecodeWait([]byte{0}); err == nil {
		t.Fatal("empty wait run id accepted")
	}
}

// TestHelloSpanContextRoundTrip covers the Version-2 trailer: span ID,
// send timestamp, and the echoed clock 4-tuple all survive the trip.
func TestHelloSpanContextRoundTrip(t *testing.T) {
	want := &Hello{Version: Version, RunID: "spanrun", WorldSize: 4, Rank: 2,
		Epoch: 3, TimingBase: 1,
		SpanID: 0x1234abcd, SendNs: 987654321,
		Echo: ClockEcho{T1: 100, T2: 150, T3: 160, T4: 220}}
	got, err := DecodeHello(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("span context lost: %+v != %+v", got, want)
	}
}

// TestHelloV1Compat pins the backward-compat contract both ways: a
// Version-1 hello (no trailer bytes at all) still decodes, and a
// Version-2 encoder talking about a v1 struct emits no trailer.
func TestHelloV1Compat(t *testing.T) {
	v1 := &Hello{Version: 1, RunID: "old", WorldSize: 8, Rank: 3, TimingBase: 2.5}
	body := v1.Encode()
	got, err := DecodeHello(body)
	if err != nil {
		t.Fatalf("v1 hello rejected: %v", err)
	}
	if got.SpanID != 0 || got.SendNs != 0 || got.Echo != (ClockEcho{}) {
		t.Fatalf("v1 hello grew span context: %+v", got)
	}
	// Span fields set on a v1 struct must NOT leak onto the wire — a v1
	// peer's strict decoder would reject the trailing bytes.
	withSpan := &Hello{Version: 1, RunID: "old", WorldSize: 8, Rank: 3, TimingBase: 2.5,
		SpanID: 99, SendNs: 42}
	if len(withSpan.Encode()) != len(body) {
		t.Fatal("v1 hello encoded span-context trailer")
	}
	if _, err := DecodeHello((&Hello{Version: Version + 1, RunID: "r", WorldSize: 2,
		TimingBase: 1}).Encode()); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestAckTimestampsOptional: acks carry NTP timestamps only when
// stamped, and a bare ack (what a v1 collector sends) round-trips.
func TestAckTimestampsOptional(t *testing.T) {
	bare := (&Ack{Status: AckOK}).Encode()
	stamped := (&Ack{Status: AckOK, RecvNs: 1000, SendNs: 2000}).Encode()
	if len(stamped) <= len(bare) {
		t.Fatal("stamped ack not longer than bare ack")
	}
	a, err := DecodeAck(bare)
	if err != nil || a.RecvNs != 0 || a.SendNs != 0 {
		t.Fatalf("bare ack: %+v, %v", a, err)
	}
	a, err = DecodeAck(stamped)
	if err != nil || a.RecvNs != 1000 || a.SendNs != 2000 {
		t.Fatalf("stamped ack: %+v, %v", a, err)
	}
}

// TestClockEchoValid pins the causality checks that keep garbage
// tuples out of the offset estimator.
func TestClockEchoValid(t *testing.T) {
	cases := []struct {
		e    ClockEcho
		want bool
	}{
		{ClockEcho{}, false}, // zero: no sample
		{ClockEcho{T1: 10, T2: 20, T3: 25, T4: 40}, true},
		{ClockEcho{T1: 10, T2: 20, T3: 25, T4: 5}, false},  // T4 < T1
		{ClockEcho{T1: 10, T2: 30, T3: 20, T4: 40}, false}, // T3 < T2
		{ClockEcho{T1: 10, T2: 20, T3: 35, T4: 21}, false}, // hold > RTT
	}
	for i, c := range cases {
		if got := c.e.Valid(); got != c.want {
			t.Fatalf("case %d: Valid() = %v, want %v", i, got, c.want)
		}
	}
}
