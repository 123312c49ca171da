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
// It is Decode's walk, so it fails where Decode fails; it does not
// allocate beyond growing tmpl and lifted.
func Split(sig string, tmpl []byte, lifted []int64) ([]byte, []int64, error) {
	w := walker{in: sig, use: splitting, out: tmpl, vals: lifted}
	_, err := w.call()
	return w.out, w.vals, err
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

// Template is a template walked once, for joining and decoding many
// times: its bytes, the offsets in them where lifted values go, and its
// call decoded for Fill.
type Template struct {
	tmpl string
	cuts []int
	pat  Pattern
}

// ParseTemplate walks template tmpl with Decode's walk, but for the
// lifted values it lacks, and decodes it for Fill on the way.
func ParseTemplate(tmpl string) (Template, error) {
	w := walker{in: tmpl, use: templating}
	p, err := w.pattern()
	if err != nil {
		return Template{}, err
	}
	return Template{tmpl: tmpl, cuts: w.cuts, pat: p}, nil
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

// Pattern is a call decoded once for every signature of one template:
// the template's call, each lifted field's value 0, which Fill sets
// from a signature's lifted values. A whole signature is the template
// that takes none (DecodeWhole).
type Pattern struct {
	d     Decoded
	lifts int
	below int // values Fill copies below Args: each status and status array holding a lifted source
}

// Pattern is the template's call, decoded for Fill.
func (t Template) Pattern() Pattern { return t.pat }

// DecodeWhole decodes a whole signature as the Pattern that takes no
// lifted values: Fill(nil) is Decode(sig).
func DecodeWhole(sig string) (Pattern, error) {
	w := walker{in: sig, use: decoding}
	return w.pattern()
}

// pattern walks one signature, or template, into its Pattern.
func (w *walker) pattern() (Pattern, error) {
	d, err := w.call()
	if err != nil {
		return Pattern{}, err
	}
	p := Pattern{d: d, lifts: len(w.cuts)}
	if p.lifts == 0 {
		return p, nil
	}
	for _, a := range d.Args {
		switch a.Kind {
		case mpispec.KStatus:
			if isLifted(a.Arr[0]) {
				p.below += 2
			}
		case mpispec.KStatArray:
			if n := liftedStatuses(a.Arr); n > 0 {
				p.below += len(a.Arr) + 2*n
			}
		}
	}
	return p, nil
}

// isLifted reports whether a rank-like field's value is lifted into a
// template's row: a selRel or selAbs peer, color, key or status source.
func isLifted(v DecodedValue) bool { return v.Sel == selRel || v.Sel == selAbs }

// liftedStatuses is the number of statuses in arr whose source is
// lifted.
func liftedStatuses(arr []DecodedValue) int {
	n := 0
	for _, st := range arr {
		if isLifted(st.Arr[0]) {
			n++
		}
	}
	return n
}

// Fill returns the call that the pattern's template makes with lifted,
// which must hold exactly the values the template takes: Decode of
// Join's signature. With no lifted values it is the pattern's own call.
// Else its Args, and each status and status array holding a lifted
// source, are one allocation of its own; every other array it shares
// with the pattern.
func (p Pattern) Fill(lifted []int64) (Decoded, error) {
	if len(lifted) != p.lifts {
		return Decoded{}, fmt.Errorf("sig: template takes %d lifted values, %d given", p.lifts, len(lifted))
	}
	if p.lifts == 0 {
		return p.d, nil
	}
	n := len(p.d.Args)
	vs := make([]DecodedValue, n+p.below)
	f := filler{lifted: lifted, below: vs[n:]}
	args := vs[:n:n]
	copy(args, p.d.Args)
	for i := range args {
		switch a := &args[i]; a.Kind {
		case mpispec.KRank, mpispec.KColor, mpispec.KKey:
			f.set(a)
		case mpispec.KStatus:
			a.Arr = f.status(a.Arr)
		case mpispec.KStatArray:
			if liftedStatuses(a.Arr) > 0 {
				arr := f.take(a.Arr)
				for j := range arr {
					arr[j].Arr = f.status(arr[j].Arr)
				}
				a.Arr = arr
			}
		}
	}
	return Decoded{Func: p.d.Func, Args: args}, nil
}

// filler hands out a Fill's lifted values in order, and its storage
// below Args.
type filler struct {
	lifted []int64
	below  []DecodedValue
}

// set sets v's value to the next lifted one if v is lifted.
func (f *filler) set(v *DecodedValue) {
	if isLifted(*v) {
		v.I, f.lifted = f.lifted[0], f.lifted[1:]
	}
}

// take copies vs to the filler's storage.
func (f *filler) take(vs []DecodedValue) []DecodedValue {
	out := f.below[:len(vs):len(vs)]
	f.below = f.below[len(vs):]
	copy(out, vs)
	return out
}

// status returns the (source, tag) pair of a status, copied with its
// source set if that is lifted.
func (f *filler) status(pair []DecodedValue) []DecodedValue {
	if !isLifted(pair[0]) {
		return pair
	}
	pair = f.take(pair)
	f.set(&pair[0])
	return pair
}
