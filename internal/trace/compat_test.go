package trace_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// v1Fixtures are PILGRIM1 files, written before grammar shapes existed,
// that the reader must keep reading. fresh rebuilds the trace each
// was written from; it is the same File on every run unless salvaged,
// since a salvage's streams end wherever the crash caught each rank.
var v1Fixtures = []struct {
	name     string
	fresh    func(t *testing.T) *trace.File
	salvaged bool
}{
	{"cg_64x4", skeleton("cg", 64, 4, pilgrim.Options{}, mpi.Options{}), false},
	{"stencil2d_16x40", skeleton("stencil2d", 16, 40, pilgrim.Options{}, mpi.Options{}), false},
	{"cellular_16x60_lossy", skeleton("cellular", 16, 60, pilgrim.Options{TimingMode: trace.TimingLossy}, mpi.Options{}), false},
	// sedov 4 × 3 and the synthetic file have no repeated shape.
	{"sedov_4x3", skeleton("sedov", 4, 3, pilgrim.Options{}, mpi.Options{}), false},
	{"distinct_shapes", func(*testing.T) *trace.File { return distinctShapes() }, false},
	{"salvage_stencil2d_8x20", skeleton("stencil2d", 8, 20, pilgrim.Options{}, mpi.Options{
		Timeout:   60 * time.Second,
		FaultPlan: &mpi.FaultPlan{Faults: []mpi.Fault{{Kind: mpi.FaultCrash, Rank: 3, AtCall: 30}}},
	}), true},
}

// skeleton traces a registry skeleton; a run that fails must salvage.
func skeleton(name string, procs, iters int, opts pilgrim.Options, sim mpi.Options) func(t *testing.T) *trace.File {
	return func(t *testing.T) *trace.File {
		t.Helper()
		body, err := workloads.Get(name, iters, procs)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := pilgrim.RunSim(procs, opts, sim, body)
		if err != nil && (f == nil || f.Salvage == nil) {
			t.Fatalf("%s: %v", name, err)
		}
		return f
	}
}

func mkGrammar(seq []int32) sequitur.Serialized {
	g := sequitur.New()
	for _, v := range seq {
		g.Append(v)
	}
	return sequitur.Serialized(g.Serialize())
}

// distinctShapes is a synthetic trace of four grammars, no two of one
// shape, as a finalize walk leaves it.
func distinctShapes() *trace.File {
	table := cst.New()
	for i := 0; i < 6; i++ {
		table.Add([]byte(fmt.Sprintf("sig%d", i)), int64(100*(i+1)))
	}
	var gs []sequitur.Serialized
	for _, seq := range [][]int32{{0, 1, 0, 1, 2}, {3, 3, 3}, {4, 5, 4, 5, 4, 5, 0}, {2}} {
		gs = append(gs, mkGrammar(seq))
	}
	return &trace.File{
		NumRanks: 6, TimingMode: trace.TimingAggregated, TimingBase: 1.2,
		CST: table, Grammars: gs, RankMap: []int32{0, 1, 2, 3, 1, 0},
		Shape: []int32{-1, -1, -1, -1}, Packed: packAll(gs),
	}
}

// unshaped is f as a finalize without shapes leaves it: every grammar
// packed by the final pass, or none when pack is false.
func unshaped(f *trace.File, pack bool) *trace.File {
	u := &trace.File{
		NumRanks: f.NumRanks, TimingMode: f.TimingMode, TimingBase: f.TimingBase,
		CST: f.CST, Grammars: f.Grammars, RankMap: f.RankMap,
		DurGrammars: f.DurGrammars, DurIndex: f.DurIndex,
		IntGrammars: f.IntGrammars, IntIndex: f.IntIndex,
		Salvage: f.Salvage,
	}
	if pack {
		u.Packed = packAll(f.Grammars)
	}
	return u
}

func write(t *testing.T, f *trace.File) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestV1FixturesRead: every PILGRIM1 fixture reads, rewrites to its own
// bytes and reads back to the same trace. A fresh run of a skeleton
// that is not a salvage gives the File the fixture holds, and where no
// shape repeats, today's writer gives the fixture's bytes but for its
// magic, its CST section and its index sections. No writer can remake the fixtures, so they
// have no -update path.
func TestV1FixturesRead(t *testing.T) {
	for _, fx := range v1Fixtures {
		t.Run(fx.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "v1", fx.name+".pilgrim"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte("PILGRIM1")) {
				t.Fatalf("fixture starts %q", data[:min(8, len(data))])
			}
			f := tracetest.Read(t, data)
			again := write(t, f)
			if !bytes.Equal(again, data) {
				t.Errorf("rewritten fixture differs (%d vs %d bytes)", len(again), len(data))
			}
			if err := tracetest.Diff(f, tracetest.Read(t, again)); err != nil {
				t.Errorf("read, write, read: %v", err)
			}
			if fx.salvaged {
				if f.Salvage == nil {
					t.Fatal("salvage fixture without salvage info")
				}
				return
			}
			// A PILGRIM1 file stores no shapes.
			fresh := fx.fresh(t)
			if err := tracetest.Diff(f, unshaped(fresh, false)); err != nil {
				t.Errorf("fixture and a fresh run: %v", err)
			}
			if len(fresh.Representatives()) == len(fresh.Grammars) {
				sameOutsideCST(t, write(t, fresh), data)
			}
		})
	}
}

// sameOutsideCST requires the bytes a writer gives to be want, but for
// the magic, a CST stored templated, a body stored deflated and the
// index sections: the header, the call section and the timing sets
// without their indices, and the salvage section take the same bytes.
func sameOutsideCST(t *testing.T, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	if g, w := outsideCST(t, got), outsideCST(t, want); !slices.EqualFunc(g, w, bytes.Equal) {
		t.Errorf("the trace differs from %d bytes outside its CST and indices (%d bytes)", len(want), len(got))
	}
}

// outsideCST is a trace's header after the magic, then, in its raw
// body, the call section and each timing set without its index, and
// the salvage section.
func outsideCST(t *testing.T, data []byte) [][]byte {
	t.Helper()
	f := tracetest.Read(t, data)
	raw := tracetest.Raw(t, data)
	at := 8 + headerLen(f)
	body := raw[at:]
	cstB, cfgB, durB, intB := f.SectionSizes()
	ends := []int{cstB, cstB + cfgB, cstB + cfgB + durB, cstB + cfgB + durB + intB}
	out := [][]byte{raw[8:at]}
	for k, st := range f.IndexStorage() {
		out = append(out, body[ends[k]:ends[k+1]-st.Bytes])
	}
	return append(out, body[ends[3]:])
}

// packedFixture is an older file that stores a section by the final
// Sequitur pass; packed reports whether the File read from it kept that
// section's pack.
type packedFixture struct {
	name   string
	fresh  func(t *testing.T) *trace.File
	packed func(f *trace.File) bool
}

// v2Fixtures are PILGRIM2 files, each storing one section by the final
// Sequitur pass, that the reader must keep reading.
var v2Fixtures = []packedFixture{
	// cellular 64 × 4 stores its call representatives packed.
	{"cellular_64x4", skeleton("cellular", 64, 4, pilgrim.Options{}, mpi.Options{}),
		func(f *trace.File) bool { return f.Packed != nil }},
	// sp 16 × 4 lossy stores its interval grammars packed.
	{"sp_16x4_lossy", skeleton("sp", 16, 4, pilgrim.Options{TimingMode: trace.TimingLossy}, mpi.Options{}),
		func(f *trace.File) bool { _, intv := trace.TimingForms(f); return intv == "packed" }},
}

// v3Fixtures are PILGRIM3 files whose timing sections are stored by
// the one-symbol pack, which the reader must keep reading.
var v3Fixtures = []packedFixture{
	// osu_alltoall 16 × 20 lossy stores both timing sections packed.
	{"osu_alltoall_16x20_lossy", skeleton("osu_alltoall", 16, 20, pilgrim.Options{TimingMode: trace.TimingLossy}, mpi.Options{}),
		func(f *trace.File) bool {
			dur, intv := trace.TimingForms(f)
			return dur == "packed" && intv == "packed"
		}},
}

// TestV2FixturesRead: every PILGRIM2 fixture reads with its pack,
// rewrites to its own bytes and reads back to the same trace, and a
// fresh run of its skeleton gives the File the fixture holds. As the v1
// fixtures, the v2 and v3 ones have no -update path.
func TestV2FixturesRead(t *testing.T) { readPackedFixtures(t, "v2", "PILGRIM2", v2Fixtures) }

// TestV3FixturesRead is TestV2FixturesRead for the PILGRIM3 fixtures.
func TestV3FixturesRead(t *testing.T) { readPackedFixtures(t, "v3", "PILGRIM3", v3Fixtures) }

// v4Fixtures are files of the writer that stored the CST only as its
// raw entries, which the reader must keep reading: cg 64 × 4 (whose
// calls are stored by shape) and a lossy PILGRIM4 file, whose timing
// sets are deflated. No writer can remake them, so they have no -update
// path.
var v4Fixtures = []struct {
	name, magic string
	fresh       func(t *testing.T) *trace.File
}{
	{"cg_64x4", "PILGRIM2", skeleton("cg", 64, 4, pilgrim.Options{}, mpi.Options{})},
	{"cellular_16x60_lossy", "PILGRIM4", skeleton("cellular", 16, 60, pilgrim.Options{TimingMode: trace.TimingLossy}, mpi.Options{})},
}

// TestV4FixturesRead: every v4 fixture reads and rewrites to its own
// bytes. A fresh run of its skeleton gives the File the fixture holds,
// today's writer stores that run's CST templated, and the file it
// writes reads to the same File. Its raw body differs from the
// fixture's only in the CST and index sections, and, where the fixture
// deflated its timing sets, in them, so there the call sections
// without the rank map take the same bytes.
func TestV4FixturesRead(t *testing.T) {
	for _, fx := range v4Fixtures {
		t.Run(fx.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "v4", fx.name+".pilgrim"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte(fx.magic)) {
				t.Fatalf("fixture starts %q", data[:min(8, len(data))])
			}
			f := tracetest.Read(t, data)
			if again := write(t, f); !bytes.Equal(again, data) {
				t.Errorf("rewritten fixture differs (%d vs %d bytes)", len(again), len(data))
			}
			fresh := fx.fresh(t)
			if err := tracetest.Diff(f, fresh); err != nil {
				t.Errorf("fixture and a fresh run: %v", err)
			}
			if st := fresh.CSTStorage(); st.Form != "templated" {
				t.Errorf("a fresh run stores its CST %+v", st)
			}
			again := write(t, fresh)
			if dur, intv := trace.TimingForms(f); dur == "deflated" || intv == "deflated" {
				_, got, _, _ := fresh.SectionSizes()
				_, want, _, _ := f.SectionSizes()
				got, want = got-fresh.IndexStorage()[0].Bytes, want-f.IndexStorage()[0].Bytes
				if got != want {
					t.Errorf("the call section takes %d bytes, %d in the fixture", got, want)
				}
			} else {
				sameOutsideCST(t, again, data)
			}
			if err := tracetest.Diff(f, tracetest.Read(t, again)); err != nil {
				t.Errorf("fixture and a fresh run's file: %v", err)
			}
		})
	}
}

func readPackedFixtures(t *testing.T, dir, magic string, fixtures []packedFixture) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", dir, fx.name+".pilgrim"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte(magic)) {
				t.Fatalf("fixture starts %q", data[:min(8, len(data))])
			}
			f := tracetest.Read(t, data)
			if !fx.packed(f) {
				t.Fatal("fixture does not store its section packed")
			}
			again := write(t, f)
			if !bytes.Equal(again, data) {
				t.Errorf("rewritten fixture differs (%d vs %d bytes)", len(again), len(data))
			}
			if err := tracetest.Diff(f, tracetest.Read(t, again)); err != nil {
				t.Errorf("read, write, read: %v", err)
			}
			if err := tracetest.Diff(f, fx.fresh(t)); err != nil {
				t.Errorf("fixture and a fresh run: %v", err)
			}
		})
	}
}

// TestPackStoredOnlyWhenFewerBytes: a trace is never larger than the
// same trace with its call pack dropped.
func TestPackStoredOnlyWhenFewerBytes(t *testing.T) {
	f := skeleton("osu_allreduce", 16, 200, pilgrim.Options{TimingMode: trace.TimingLossy}, mpi.Options{})(t)
	raw := unshaped(f, false)
	raw.Shape = f.Shape
	if got, want := len(write(t, f)), len(write(t, raw)); got > want {
		t.Fatalf("%d bytes with packs, %d without", got, want)
	}
}

// TestShapeRoundTripAllSkeletons is the oracle over every registry
// skeleton: the written trace reads back to the same grammars, its call
// section is never larger than the smaller of the raw set and the pack
// of every grammar, and a trace in which no shape repeats is the bytes
// a writer without shapes gives.
func TestShapeRoundTripAllSkeletons(t *testing.T) {
	lossy := pilgrim.Options{TimingMode: trace.TimingLossy}
	type run struct {
		name string
		opts pilgrim.Options
	}
	var runs []run
	for _, info := range workloads.List() {
		runs = append(runs, run{info.Name, pilgrim.Options{}})
		if info.Name == "cellular" || info.Name == "stencil2d" {
			runs = append(runs, run{info.Name, lossy})
		}
	}
	shaped := 0
	for _, r := range runs {
		for _, procs := range []int{4, 16, 64} {
			f := skeleton(r.name, procs, 3, r.opts, mpi.Options{})(t)
			name := fmt.Sprintf("%s %d ranks lossy=%v", r.name, procs, r.opts.TimingMode == trace.TimingLossy)
			data := write(t, f)
			back := tracetest.Read(t, data)
			if err := tracetest.Diff(f, back); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// Only the call section differs between the three raw bodies.
			v1 := min(unshaped(f, false).BodyStorage().Raw, unshaped(f, true).BodyStorage().Raw)
			if got := f.BodyStorage().Raw; got > v1 {
				t.Errorf("%s: a %d-byte raw body with shapes, %d without", name, got, v1)
			}
			if len(f.Representatives()) == len(f.Grammars) {
				if !bytes.Equal(data, write(t, unshaped(f, true))) {
					t.Errorf("%s: no shape repeats, yet the bytes differ from a writer without shapes", name)
				}
			} else {
				shaped++
			}
		}
	}
	if shaped == 0 {
		t.Fatal("no skeleton repeated a shape")
	}
}

// packAll is the final Sequitur pass over gs: a Packer fed them in order.
func packAll(gs []sequitur.Serialized) sequitur.Serialized {
	p := sequitur.NewPacker()
	for _, g := range gs {
		p.Add(g)
	}
	return p.Finish()
}

// TestSectionSizesSumToFile: the four sections SectionSizes reports and
// a salvage section are the raw body, and the magic, the header and the
// body as stored are the whole file, for every golden trace and a
// 1024-rank cg trace.
func TestSectionSizesSumToFile(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.pilgrim"))
	if err != nil {
		t.Fatal(err)
	}
	more, err := filepath.Glob(filepath.Join("..", "replay", "testdata", "golden", "*.pilgrim"))
	if err != nil {
		t.Fatal(err)
	}
	if paths = append(paths, more...); len(paths) != 25 {
		t.Fatalf("%d golden traces", len(paths))
	}
	files := map[string][]byte{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(path)] = data
	}
	files["cg_1024x3"] = write(t, skeleton("cg", 1024, 3, pilgrim.Options{}, mpi.Options{})(t))
	for name, data := range files {
		f := tracetest.Read(t, data)
		cstB, cfgB, durB, intB := f.SectionSizes()
		st := f.BodyStorage()
		if sum := cstB + cfgB + durB + intB + salvageLen(f.Salvage); sum != st.Raw {
			t.Errorf("%s: sections %d %d %d %d and salvage sum to %d, the raw body is %d bytes",
				name, cstB, cfgB, durB, intB, sum, st.Raw)
		}
		if n := 8 + headerLen(f) + st.Stored; n != len(data) {
			t.Errorf("%s: magic, header and a body stored in %d bytes take %d, the file is %d", name, st.Stored, n, len(data))
		}
	}
}

// headerLen is the bytes of f's header after the magic.
func headerLen(f *trace.File) int {
	hdr := binary.AppendUvarint(nil, uint64(f.NumRanks))
	hdr = append(hdr, f.TimingMode)
	return len(binary.AppendUvarint(hdr, math.Float64bits(f.TimingBase)))
}

// salvageLen is the bytes of a salvage section holding s, 0 for nil.
func salvageLen(s *trace.SalvageInfo) int {
	if s == nil {
		return 0
	}
	b := binary.AppendUvarint(nil, uint64(len(s.FailedRanks)))
	for _, r := range s.FailedRanks {
		b = binary.AppendVarint(b, int64(r))
	}
	b = append(binary.AppendUvarint(b, uint64(len(s.Reason))), s.Reason...)
	b = binary.AppendUvarint(b, uint64(len(s.Calls)))
	for _, c := range s.Calls {
		b = binary.AppendVarint(b, c)
	}
	return 1 + len(binary.AppendUvarint(nil, uint64(len(b)))) + len(b)
}
