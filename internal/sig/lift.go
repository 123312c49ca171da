package sig

import (
	"encoding/binary"
	"fmt"
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

// Template is a template walked once, for joining many times: its bytes
// and the offsets in them where lifted values go.
type Template struct {
	tmpl string
	cuts []int
}

// ParseTemplate walks template tmpl with Decode's walk, but for the
// lifted values it lacks.
func ParseTemplate(tmpl string) (Template, error) {
	w := walker{in: tmpl, use: joining}
	if _, err := w.call(); err != nil {
		return Template{}, err
	}
	return Template{tmpl: tmpl, cuts: w.cuts}, nil
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
