package sig

import (
	"encoding/binary"
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// A signature's template is the signature with the varints of its
// rank-like fields removed: each KRank peer, KColor and KKey, and each
// status source (KStatus, KStatArray) whose selector is selRel or
// selAbs (§3.4.2). The selector stays in the template. Those varints
// are the signature's lifted values, in signature order. SPMD ranks
// whose signatures differ only in a partner, color or key share one
// template, which lets a trace store the CST by template (trace's
// templated CST section).

// Split appends sig's template to tmpl and its lifted values to lifted.
// It walks sig as Decode does and fails where Decode fails; it does not
// allocate beyond growing tmpl and lifted.
func Split(sig string, tmpl []byte, lifted []int64) ([]byte, []int64, error) {
	l := lifter{in: sig, out: tmpl, vals: lifted}
	err := l.walk()
	return l.out, l.vals, err
}

// Join appends to dst the signature that template tmpl and its lifted
// values make: Join(nil, Split(sig)) is sig. It is ParseTemplate, then
// Template.Join.
func Join(dst []byte, tmpl string, lifted []int64) ([]byte, error) {
	t, err := ParseTemplate(tmpl)
	if err != nil {
		return dst, err
	}
	return t.Join(dst, lifted)
}

// Template is a template walked once, for joining many times: its bytes
// and the offsets in them where lifted values go.
type Template struct {
	tmpl string
	cuts []int
}

// ParseTemplate walks template tmpl as Decode walks a signature, but
// for the lifted values it lacks.
func ParseTemplate(tmpl string) (Template, error) {
	l := lifter{in: tmpl, join: true}
	if err := l.walk(); err != nil {
		return Template{}, err
	}
	return Template{tmpl: tmpl, cuts: l.cuts}, nil
}

// Lifts is the number of lifted values the template takes.
func (t Template) Lifts() int { return len(t.cuts) }

// Join appends to dst the signature the template makes with lifted,
// which must hold exactly Lifts values.
func (t Template) Join(dst []byte, lifted []int64) ([]byte, error) {
	if len(lifted) != len(t.cuts) {
		return dst, fmt.Errorf("sig: template takes %d lifted values, %d given", len(t.cuts), len(lifted))
	}
	at := 0
	for i, c := range t.cuts {
		dst = binary.AppendVarint(append(dst, t.tmpl[at:c]...), lifted[i])
		at = c
	}
	return append(dst, t.tmpl[at:]...), nil
}

// lifter walks one signature (Split) or template (join) over
// mpispec.Spec with Decode's grammar (decodeValue). Split copies what
// it walks to out but the varint of each lifted value, which it moves
// to vals; join, walking a template, notes in cuts where each lifted
// value goes. The first failure is kept in err; the walk stops at it.
type lifter struct {
	in   string
	pos  int
	from int // in[from:pos] is walked but not yet copied to out
	out  []byte
	vals []int64
	cuts []int
	join bool
	err  error
}

func (l *lifter) walk() error {
	fid := l.uvarint()
	switch {
	case l.err != nil:
		return l.err
	case fid >= uint64(mpispec.NumFuncs):
		return fmt.Errorf("sig: unknown function id %d", fid)
	}
	spec := &mpispec.Spec[fid]
	for i := range spec.Params {
		if l.value(spec.Params[i].Kind); l.err != nil {
			return fmt.Errorf("sig: %s.%s: %w", spec.Name, spec.Params[i].Name, l.err)
		}
	}
	if l.pos != len(l.in) {
		return fmt.Errorf("sig: %s: %d trailing bytes", spec.Name, len(l.in)-l.pos)
	}
	if !l.join {
		l.out = append(l.out, l.in[l.from:]...)
	}
	return nil
}

// value walks one field of kind, as decodeValue reads it.
func (l *lifter) value(kind mpispec.ParamKind) {
	switch kind {
	case mpispec.KInt, mpispec.KComm, mpispec.KDatatype, mpispec.KOp,
		mpispec.KGroup, mpispec.KRequest:
		l.uvarint() // a varint's zigzag is a uvarint
	case mpispec.KRank, mpispec.KColor, mpispec.KKey:
		l.rankLike(true)
	case mpispec.KTag:
		l.rankLike(false)
	case mpispec.KReqArray, mpispec.KIntArray, mpispec.KIndexArray:
		for n, i := l.uvarint(), uint64(0); l.err == nil && i < n; i++ {
			l.uvarint()
		}
	case mpispec.KStatus:
		l.status()
	case mpispec.KStatArray:
		for n, i := l.uvarint(), uint64(0); l.err == nil && i < n; i++ {
			l.status()
		}
	case mpispec.KPtr:
		switch sel := l.byte(); {
		case l.err != nil:
		case sel == ptrHeap: // id, offset, device
			l.uvarint()
			l.uvarint()
			l.uvarint()
		case sel == ptrStack:
			l.uvarint()
		case sel != ptrNil:
			l.fail(fmt.Sprintf("bad pointer selector %d", sel))
		}
	case mpispec.KString:
		n := l.uvarint()
		switch {
		case l.err != nil:
		case n > uint64(len(l.in)-l.pos):
			l.fail("truncated string")
		default:
			l.pos += int(n)
		}
	default:
		l.fail(fmt.Sprintf("unhandled kind %v", kind))
	}
}

// rankLike walks a selector and, for selRel and selAbs, its varint,
// which is lifted when lift is set.
func (l *lifter) rankLike(lift bool) {
	sel := l.byte()
	switch {
	case l.err != nil || sel != selRel && sel != selAbs:
		return
	case !lift:
		l.uvarint()
		return
	}
	if l.join {
		l.cuts = append(l.cuts, l.pos)
		return
	}
	l.out = append(l.out, l.in[l.from:l.pos]...)
	ux := l.uvarint()
	if l.err != nil {
		return
	}
	v := int64(ux >> 1) // binary.Varint's zigzag
	if ux&1 != 0 {
		v = ^v
	}
	l.vals = append(l.vals, v)
	l.from = l.pos
}

// status walks a status as decodeStatus reads it: the source, lifted,
// then the tag.
func (l *lifter) status() {
	if l.rankLike(true); l.err == nil {
		l.uvarint()
	}
}

func (l *lifter) byte() byte {
	if l.pos >= len(l.in) {
		l.fail("truncated selector")
		return 0
	}
	b := l.in[l.pos]
	l.pos++
	return b
}

// uvarint is reader.uvarint over the string: binary.Uvarint, which
// fails on a truncated or overlong varint, and refuses a varint longer
// than its shortest form.
func (l *lifter) uvarint() uint64 {
	if l.pos < len(l.in) {
		if b := l.in[l.pos]; b < 0x80 { // one byte: most varints of a signature
			l.pos++
			return uint64(b)
		}
	}
	return l.longUvarint()
}

// longUvarint is uvarint past its one-byte case.
func (l *lifter) longUvarint() uint64 {
	var x uint64
	var s uint
	for i := 0; l.err == nil && l.pos+i < len(l.in); i++ {
		b := l.in[l.pos+i]
		if i > 0 && b == 0 {
			l.fail("uvarint longer than its shortest form")
			return 0
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			break
		}
		if b < 0x80 {
			l.pos += i + 1
			return x | uint64(b)<<s
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	l.fail("truncated uvarint")
	return 0
}

// fail keeps the walk's first failure, at the cursor. It is not
// inlined, so that the cursor's methods are.
//
//go:noinline
func (l *lifter) fail(what string) {
	if l.err == nil {
		l.err = fmt.Errorf("sig: %s at %d", what, l.pos)
	}
}
