package trace

import (
	"bytes"
	"testing"
)

func TestSalvageRoundtrip(t *testing.T) {
	f := mkFile(t)
	f.Salvage = &SalvageInfo{
		FailedRanks: []int32{1, 3},
		Reason:      "mpi: rank 1 crashed at MPI call 10 (injected fault)",
		Calls:       []int64{100, 9, 100, 42},
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := got.Salvage
	if s == nil {
		t.Fatal("salvage section lost on roundtrip")
	}
	if len(s.FailedRanks) != 2 || s.FailedRanks[0] != 1 || s.FailedRanks[1] != 3 {
		t.Errorf("failed ranks = %v, want [1 3]", s.FailedRanks)
	}
	if s.Reason != f.Salvage.Reason {
		t.Errorf("reason = %q, want %q", s.Reason, f.Salvage.Reason)
	}
	if len(s.Calls) != 4 || s.Calls[1] != 9 || s.Calls[3] != 42 {
		t.Errorf("calls = %v, want [100 9 100 42]", s.Calls)
	}
}

func TestSalvageAbsentKeepsOldFormat(t *testing.T) {
	// A normal trace must serialize byte-identically with or without
	// the salvage-aware writer: no trailing section, readable as before.
	f := mkFile(t)
	var withNil bytes.Buffer
	if _, err := f.WriteTo(&withNil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(withNil.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Salvage != nil {
		t.Errorf("phantom salvage info on a clean trace: %+v", got.Salvage)
	}

	// An old-format stream is exactly the salvage-free serialization;
	// appending the section must grow the stream, not change its prefix.
	f = mkFile(t) // a File is fixed by its first write
	f.Salvage = &SalvageInfo{FailedRanks: []int32{0}, Reason: "x", Calls: []int64{1, 1, 1, 1}}
	var withInfo bytes.Buffer
	if _, err := f.WriteTo(&withInfo); err != nil {
		t.Fatal(err)
	}
	if withInfo.Len() <= withNil.Len() {
		t.Fatalf("salvage section did not grow the stream (%d vs %d)", withInfo.Len(), withNil.Len())
	}
	if !bytes.Equal(withInfo.Bytes()[:withNil.Len()], withNil.Bytes()) {
		t.Error("salvage section changed the preceding byte layout")
	}
}

func TestSalvageSizeBytesMatchesWrite(t *testing.T) {
	f := mkFile(t)
	f.Salvage = &SalvageInfo{FailedRanks: []int32{2}, Reason: "crash", Calls: []int64{5, 5, 5, 0}}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if f.SizeBytes() != buf.Len() {
		t.Fatalf("SizeBytes()=%d, wrote %d", f.SizeBytes(), buf.Len())
	}
}
