package wire

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/core"
)

// splitAgreesWithRead is the oracle SplitFrame is held to: on any
// bytes it accepts exactly when ReadFrame accepts, with the same type
// and body, and its rest is what ReadFrame left unread.
func splitAgreesWithRead(t *testing.T, data []byte) {
	t.Helper()
	r := bytes.NewReader(data)
	wantTyp, wantBody, wantErr := ReadFrame(r)
	typ, body, rest, err := SplitFrame(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%d bytes: SplitFrame err %v, ReadFrame err %v", len(data), err, wantErr)
	}
	if err != nil {
		return
	}
	if typ != wantTyp || !bytes.Equal(body, wantBody) {
		t.Fatalf("%d bytes: SplitFrame (0x%02x, %d-byte body), ReadFrame (0x%02x, %d-byte body)",
			len(data), typ, len(body), wantTyp, len(wantBody))
	}
	if want := data[len(data)-r.Len():]; !bytes.Equal(rest, want) {
		t.Fatalf("%d bytes: SplitFrame left %d bytes, ReadFrame left %d", len(data), len(rest), len(want))
	}
}

// TestSplitFrameMatchesReadFrame: differential over random bodies from
// empty to past the reader's 1 MiB chunk, each alone, followed by a
// second frame, cut short at every interesting point, and with a byte
// flipped in each field.
func TestSplitFrameMatchesReadFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 9, 255, 4096, 1 << 20, 1<<20 + 1, 3<<20 + 17} {
		body := make([]byte, n)
		rng.Read(body)
		typ := byte(TypeHello + rng.Intn(TypeNack-TypeHello+1))
		frame := AppendFrame(nil, typ, body)
		splitAgreesWithRead(t, frame)
		splitAgreesWithRead(t, AppendFrame(frame[:len(frame):len(frame)], TypeAck, []byte("next")))
		for _, cut := range []int{0, 1, 4, 5, 5 + n/2, len(frame) - 4, len(frame) - 1} {
			splitAgreesWithRead(t, frame[:cut])
		}
		for _, at := range []int{0, 3, 4, 5 + n/2, len(frame) - 1} {
			bad := append([]byte(nil), frame...)
			bad[at%len(bad)] ^= 0x10
			splitAgreesWithRead(t, bad)
			if _, _, _, err := SplitFrame(bad); err == nil {
				t.Fatalf("%d-byte body: flipped byte %d accepted", n, at)
			}
		}
	}
	// Over the cap by the length field alone: refused before any body
	// is looked at.
	splitAgreesWithRead(t, []byte{0x01, 0x00, 0x00, 0x10, TypeSnapshot, 0, 0, 0, 0})
}

func goldenFrameFiles(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.frame"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden frames: %v", err)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

func TestSplitFrameGolden(t *testing.T) {
	for name, data := range goldenFrameFiles(t) {
		splitAgreesWithRead(t, data)
		if _, _, rest, err := SplitFrame(data); err != nil || len(rest) != 0 {
			t.Fatalf("%s: err %v, %d bytes left over", name, err, len(rest))
		}
	}
}

// FuzzSplitFrame: SplitFrame accepts iff ReadFrame accepts, same type
// and body, on anything.
func FuzzSplitFrame(f *testing.F) {
	for _, data := range goldenFrameFiles(f) {
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, TypeSnapshot})
	f.Fuzz(func(t *testing.T, data []byte) { splitAgreesWithRead(t, data) })
}

// TestDecodePair: the journal's unit decodes to the hello and snapshot
// that were framed, table included; a body the snapshot decoder refuses
// is refused; and anything but exactly hello ‖ snapshot is refused.
func TestDecodePair(t *testing.T) {
	hello := &Hello{Version: Version, RunID: "pair", WorldSize: 4, Rank: 2, Epoch: 9, TimingBase: 1.2}
	for name, s := range map[string]*core.Snapshot{
		"lossy": testSnapshot(), "aggregated": aggregatedSnapshot(), "minimal": minimalSnapshot(),
	} {
		body := EncodeSnapshot(s)
		pair := AppendFrame(AppendFrame(nil, TypeHello, hello.Encode()), TypeSnapshot, body)
		h, got, err := DecodePair(pair)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if *h != *hello {
			t.Fatalf("%s: hello %+v, want %+v", name, h, hello)
		}
		if !bytes.Equal(EncodeSnapshot(got), body) {
			t.Fatalf("%s: snapshot differs", name)
		}
		// Truncate the body inside the grammar and re-frame it, so only
		// the snapshot decoder can object.
		short := AppendFrame(AppendFrame(nil, TypeHello, hello.Encode()), TypeSnapshot, body[:len(body)-1])
		if _, _, err := DecodePair(short); err == nil {
			t.Fatalf("%s: truncated snapshot body accepted", name)
		}
		for what, bad := range map[string][]byte{
			"trailing byte":   append(append([]byte(nil), pair...), 0),
			"snapshot first":  AppendFrame(AppendFrame(nil, TypeSnapshot, body), TypeHello, hello.Encode()),
			"hello alone":     AppendFrame(nil, TypeHello, hello.Encode()),
			"two hellos":      AppendFrame(AppendFrame(nil, TypeHello, hello.Encode()), TypeHello, hello.Encode()),
			"empty":           nil,
			"cut in snapshot": pair[:len(pair)-3],
		} {
			if _, _, err := DecodePair(bad); err == nil {
				t.Fatalf("%s: %s accepted", name, what)
			}
		}
	}
}
