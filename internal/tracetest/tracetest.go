// Package tracetest holds what the tests of several packages share. It
// writes a trace to its bytes and reads it back (Bytes, Read), failing
// the test on an error. It compares trace files by the bytes they
// hold, not by how compress/flate stored them: its output may change
// between Go releases, so a committed trace whose body is deflated is
// compared with a fresh one through Raw, and by what a reader sees
// through Diff. And it records a skeleton's per-rank hook calls once (Record),
// to trace them again into fresh tracers without the simulator.
package tracetest

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/trace"
)

// Bytes returns f as its writer writes it.
func Bytes(t testing.TB, f *trace.File) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// Read reads the trace data holds.
func Read(t testing.TB, data []byte) *trace.File {
	t.Helper()
	f, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// Raw returns a trace's bytes with a deflated body inflated: a PILGRIM6
// or PILGRIM8 file's magic and header, then its raw body. Any other
// file is returned as it is.
func Raw(t testing.TB, data []byte) []byte {
	t.Helper()
	if !bytes.HasPrefix(data, []byte("PILGRIM6")) && !bytes.HasPrefix(data, []byte("PILGRIM8")) {
		return data
	}
	at := 8
	uvarint := func() uint64 {
		v, k := binary.Uvarint(data[min(at, len(data)):])
		if k <= 0 {
			at = len(data) + 1
		}
		at += k
		return v
	}
	uvarint()                                   // ranks
	at++                                        // timing mode
	uvarint()                                   // timing base
	head, at := data[:min(at, len(data))], at+1 // past the selector
	n, l := uvarint(), uvarint()
	if at > len(data) || uint64(len(data)-at) != l {
		t.Fatal("tracetest: no deflate stream ends the file")
	}
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(data[at:])))
	if err != nil || uint64(len(raw)) != n {
		t.Fatalf("tracetest: %d of %d raw bytes (%v)", len(raw), n, err)
	}
	return append(append([]byte(nil), head...), raw...)
}
