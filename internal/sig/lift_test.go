package sig

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// liftedOracle is what Split must lift from a call Decode reads: the
// value of each selRel or selAbs peer, color, key and status source,
// in argument order.
func liftedOracle(d Decoded) []int64 {
	var out []int64
	lift := func(v DecodedValue) {
		if v.Sel == selRel || v.Sel == selAbs {
			out = append(out, v.I)
		}
	}
	for _, a := range d.Args {
		switch a.Kind {
		case mpispec.KRank, mpispec.KColor, mpispec.KKey:
			lift(a)
		case mpispec.KStatus:
			lift(a.Arr[0])
		case mpispec.KStatArray:
			for _, st := range a.Arr {
				lift(st.Arr[0])
			}
		}
	}
	return out
}

// checkSplitJoin is the Split/Join oracle for any bytes b: Split and
// DecodeWhole succeed exactly when Decode does, and DecodeWhole's
// pattern filled with nothing is Decode's call; then Split lifts
// liftedOracle's values, the template is b without their varints and
// parses to take as many, Join gives b back, the template's pattern
// filled in with them is Decode's call again, and Join and Fill refuse
// one value too few or too many.
func checkSplitJoin(t testing.TB, b []byte) {
	t.Helper()
	d, derr := Decode(b)
	whole, werr := DecodeWhole(string(b))
	if (werr == nil) != (derr == nil) {
		t.Fatalf("%x: DecodeWhole error %v, Decode error %v", b, werr, derr)
	}
	if werr == nil {
		if got, err := whole.Fill(nil); err != nil || !reflect.DeepEqual(got, d) {
			t.Fatalf("%x: whole signature fills to %v (%v), Decode gives %v", b, got, err, d)
		}
	}
	tmpl, lifted, err := Split(string(b), nil, nil)
	if (err == nil) != (derr == nil) {
		t.Fatalf("%x: Split error %v, Decode error %v", b, err, derr)
	}
	if err != nil {
		return
	}
	if want := liftedOracle(d); !slices.Equal(lifted, want) {
		t.Fatalf("%x (%s): lifted %v, want %v", b, d, lifted, want)
	}
	size := len(tmpl)
	for _, v := range lifted {
		size += len(binary.AppendVarint(nil, v))
	}
	if size != len(b) {
		t.Fatalf("%x: template of %d bytes and %d lifted values make %d bytes", b, len(tmpl), len(lifted), size)
	}
	p, err := ParseTemplate(string(tmpl))
	if err != nil || p.Lifts() != len(lifted) {
		t.Fatalf("%x: template takes %d lifted values (%v); Split lifted %d", b, p.Lifts(), err, len(lifted))
	}
	pat := p.Pattern()
	if got, err := pat.Fill(lifted); err != nil || !reflect.DeepEqual(got, d) {
		t.Fatalf("%x: template filled in is %v (%v), Decode gives %v", b, got, err, d)
	}
	if _, err := pat.Fill(append(slices.Clone(lifted), 7)); err == nil {
		t.Fatalf("%x: Fill took a value too many", b)
	}
	if len(lifted) > 0 {
		if _, err := pat.Fill(lifted[1:]); err == nil {
			t.Fatalf("%x: Fill took a value too few", b)
		}
	}
	back, err := Join(nil, string(tmpl), lifted)
	if err != nil || !bytes.Equal(back, b) {
		t.Fatalf("%x: Join gives %x, %v", b, back, err)
	}
	if _, err := Join(nil, string(tmpl), append(slices.Clone(lifted), 7)); err == nil {
		t.Fatalf("%x: Join took a value too many", b)
	}
	if len(lifted) > 0 {
		if _, err := Join(nil, string(tmpl), lifted[1:]); err == nil {
			t.Fatalf("%x: Join took a value too few", b)
		}
	}
}

// liftSeeds are signatures of every lifted kind, and each request
// stream fuzzSeeds generates, encoded.
func liftSeeds() [][]byte {
	sel := func(b []byte, s byte, v int64) []byte { return binary.AppendVarint(append(b, s), v) }
	fid := func(f mpispec.FuncID) []byte { return binary.AppendUvarint(nil, uint64(f)) }
	split := binary.AppendVarint(sel(sel(binary.AppendVarint(fid(mpispec.FCommSplit), 1), selAbs, 3), selRel, -5), 4)
	anySrc := binary.AppendVarint(append(binary.AppendVarint(fid(mpispec.FProbe), 0), selAnySrc, selAnyTag), 1)
	anySrc = binary.AppendVarint(append(anySrc, selRel), 2) // a status source and its tag
	anySrc = binary.AppendVarint(anySrc, 9)
	name := append(binary.AppendUvarint(binary.AppendVarint(fid(mpispec.FCommSetName), 1), 3), "abc"...)
	seeds := [][]byte{split, anySrc, name}
	names := make([]string, 0, len(fuzzSeeds))
	for n := range fuzzSeeds {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		e := NewEncoder(3, &scriptOOB{})
		for _, ev := range genStream(fuzzSeeds[n]).events {
			switch {
			case ev.rec != nil:
				seeds = append(seeds, e.Encode(ev.rec))
			case ev.size > 0:
				e.MemAlloc(ev.addr, ev.size, ev.dev)
			default:
				e.MemFree(ev.addr)
			}
		}
	}
	return seeds
}

// TestSplitJoinSeeds runs the oracle over the seeds, each cut short at
// every length, and checks that the seeds lift every lifted kind.
func TestSplitJoinSeeds(t *testing.T) {
	kinds := map[mpispec.ParamKind]bool{}
	for _, b := range liftSeeds() {
		for n := 0; n <= len(b); n++ {
			checkSplitJoin(t, b[:n])
		}
		d, err := Decode(b)
		if err != nil {
			t.Fatalf("seed %x: %v", b, err)
		}
		for _, a := range d.Args {
			if len(liftedOracle(Decoded{Args: []DecodedValue{a}})) > 0 {
				kinds[a.Kind] = true
			}
		}
	}
	for _, k := range []mpispec.ParamKind{mpispec.KRank, mpispec.KColor, mpispec.KKey, mpispec.KStatus, mpispec.KStatArray} {
		if !kinds[k] {
			t.Errorf("no seed lifts a %v", k)
		}
	}
}

// TestSplitAllocFree: with its buffers grown, Split allocates nothing.
func TestSplitAllocFree(t *testing.T) {
	var sigs []string
	for _, b := range liftSeeds() {
		sigs = append(sigs, string(b))
	}
	tmpl, lifted := make([]byte, 0, 1<<10), make([]int64, 0, 1<<8)
	if n := testing.AllocsPerRun(20, func() {
		for _, s := range sigs {
			tmpl, lifted, _ = Split(s, tmpl[:0], lifted[:0])
		}
	}); n != 0 {
		t.Fatalf("Split allocates %.1f times over %d signatures", n, len(sigs))
	}
}

func FuzzSplitJoin(f *testing.F) {
	for _, b := range liftSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkSplitJoin(t, b) })
}
