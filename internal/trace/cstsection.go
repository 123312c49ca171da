package trace

// The CST section (DESIGN §4d). From magicTemplates on it starts with a
// selector: cstRaw, then the table as cst.Serialize writes it, which is
// how every older file stores it, without the selector; or
// cstTemplated, then the templated section: the unique templates
// (sig.Split) in first-use order, the entry count, and four columns of
// an int or a row per entry: template ids, lifted values, counts and
// average durations. The last three are deltas against the previous
// entry of the same template (zeros before its first), and may list
// the entries grouped by template (inOrder). A column is a layout
// byte, as the shape section's vectors have, and its ints.

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/sig"
)

// CST section selectors, from magicTemplates on.
const (
	cstRaw       = 0
	cstTemplated = 1
)

// inOrder, in the layout byte of a templated CST column, lists its rows
// with the entries grouped by template, in entry order within one.
const inOrder = 0x80

// maxCSTEntries and maxCSTSigBytes cap the entries and the signature
// bytes a templated section may rebuild, since run-length columns let a
// few bytes claim any number of them. The writer stores a larger table
// raw.
const (
	maxCSTEntries  = 1 << 20
	maxCSTSigBytes = 1 << 24
)

// CSTStorage is how the CST is stored: Form is "raw" or "templated",
// Raw the bytes the table takes raw and Stored the bytes it takes as
// stored, neither counting a selector or length.
type CSTStorage struct {
	Form               string
	Entries, Templates int
	Raw, Stored        int
}

// CSTStorage reports how the CST is stored. The templates of a table
// stored raw are counted on the first call. A File WriteTo refuses
// reports zeros.
func (f *File) CSTStorage() CSTStorage {
	st := f.form().cst
	if st.Form == "raw" {
		f.tmplOnce.Do(func() { _, f.templates = templateCST(f.CST) })
		st.Templates = f.templates
	}
	return st
}

// framedLen is the number of bytes writeBytes writes for n bytes.
func framedLen(n int) int { return uvarintLen(uint64(n)) + n }

// writeCST writes the CST section of t: templated, behind cstTemplated,
// when that takes fewer bytes than the raw table without a selector,
// else raw behind cstRaw. It returns how t is stored, its templates
// counted only if templated. The raw table is sized, and serialized only
// when stored.
func writeCST(w *bytes.Buffer, t *cst.Table) CSTStorage {
	raw := t.Bytes()
	st := CSTStorage{Form: "raw", Entries: t.Len(), Raw: raw, Stored: raw}
	if tm, n := templateCST(t); tm != nil && 1+framedLen(len(tm)) < framedLen(raw) {
		st.Form, st.Templates, st.Stored = "templated", n, len(tm)
		w.WriteByte(cstTemplated)
		writeBytes(w, tm)
		return st
	}
	w.WriteByte(cstRaw)
	writeBytes(w, t.Serialize())
	return st
}

// templateCST is t's templated section and its template count, or nil
// and 0 when an entry does not split or t exceeds the caps.
func templateCST(t *cst.Table) ([]byte, int) {
	n := t.Len()
	if n > maxCSTEntries {
		return nil, 0
	}
	byTmpl := make(map[string]int64, min(n, 1024)) // a small table's never grows
	var tmpls []string
	var widths []int // lifted values per template
	tid, starts := make([]int64, n), make([]int, n+1)
	lifted := make([]int64, 0, 4*n) // every entry's lifted values, in entry order
	var buf []byte
	size := 0
	for i := range n {
		s := t.SigString(int32(i))
		if size += len(s); size > maxCSTSigBytes {
			return nil, 0
		}
		starts[i] = len(lifted)
		var err error
		if buf, lifted, err = sig.Split(s, buf[:0], lifted); err != nil {
			return nil, 0
		}
		id, ok := byTmpl[string(buf)]
		if !ok {
			id = int64(len(tmpls))
			tmpls = append(tmpls, string(buf))
			widths = append(widths, len(lifted)-starts[i])
			byTmpl[tmpls[id]] = id
		}
		tid[i] = id
	}
	starts[n] = len(lifted)
	lens, counts, avgs := make([]int, n), make([]int64, n), make([]int64, n)
	prev := newPrevRows(widths)
	for i, id := range tid {
		lens[i], counts[i], avgs[i] = starts[i+1]-starts[i], t.Count(int32(i)), t.AvgDuration(int32(i))
		prev.delta(id, lifted[starts[i]:starts[i+1]], &counts[i], &avgs[i], false)
	}
	b := binary.AppendUvarint(nil, uint64(len(tmpls)))
	for _, s := range tmpls {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(n))
	b = appendColumn(b, tid, nil, nil)
	order := byTemplate(tid, len(tmpls))
	if len(tmpls) == n { // every entry has a template of its own: the orders agree
		order = nil
	}
	b = appendColumn(b, lifted, lens, order)
	b = appendColumn(b, counts, nil, order)
	return appendColumn(b, avgs, nil, order), len(tmpls)
}

// appendColumn appends column d, of rows of lengths lens (nil: one int
// each), in the layout that takes the fewest ints: with its rows in
// entry order, or in order if that is non-nil and takes fewer
// (inOrder).
func appendColumn(b []byte, d []int64, lens []int, order []int) []byte {
	enc, vs := layout(d, lens)
	if order != nil {
		od, olens := permute(d, lens, order, false)
		if oenc, ovs := layout(od, olens); len(ovs) < len(vs) {
			enc, vs = oenc|inOrder, ovs
		}
	}
	return sequitur.AppendInts(append(b, enc), vs)
}

// permute lists the rows of d, of lengths lens (nil: one int each), in
// order, and returns them and their lengths; back lists rows so listed
// in entry order again.
func permute(d []int64, lens []int, order []int, back bool) ([]int64, []int) {
	out := make([]int64, len(d))
	if lens == nil {
		for k, i := range order {
			if back {
				out[i] = d[k]
			} else {
				out[k] = d[i]
			}
		}
		return out, nil
	}
	at := make([]int, len(order)+1) // where row i starts in entry order
	for i, l := range lens {
		at[i+1] = at[i] + l
	}
	olens := make([]int, len(order))
	k := 0
	for j, i := range order {
		src, dst := d[at[i]:at[i+1]], out[k:k+lens[i]]
		if back {
			src, dst = d[k:k+lens[i]], out[at[i]:at[i+1]]
		}
		copy(dst, src)
		olens[j] = lens[i]
		k += lens[i]
	}
	return out, olens
}

// byTemplate orders the entries of template ids tid by template, and in
// entry order within one.
func byTemplate(tid []int64, templates int) []int {
	next := make([]int, templates+1) // next[id+1]: entries of templates up to id
	for _, id := range tid {
		next[id+1]++
	}
	for id := range templates {
		next[id+1] += next[id]
	}
	order := make([]int, len(tid))
	for i, id := range tid {
		order[next[id]] = i
		next[id]++
	}
	return order
}

// prevRows holds, per template, its previous entry's lifted values,
// count and average duration: zeros before its first entry.
type prevRows struct {
	lifted     []int64 // template id's at lifted[off[id]:off[id+1]]
	off        []int
	count, avg []int64
}

// newPrevRows holds the rows of templates taking widths lifted values.
func newPrevRows(widths []int) *prevRows {
	p := &prevRows{off: make([]int, len(widths)+1), count: make([]int64, len(widths)), avg: make([]int64, len(widths))}
	for id, w := range widths {
		p.off[id+1] = p.off[id] + w
	}
	p.lifted = make([]int64, p.off[len(widths)])
	return p
}

// delta turns an entry of template id, in place, into its deltas
// against the template's previous entry, or back from them; either way
// the entry becomes the template's previous one.
func (p *prevRows) delta(id int64, row []int64, count, avg *int64, back bool) {
	prev := p.lifted[p.off[id]:p.off[id+1]]
	for c := range row {
		step(&row[c], &prev[c], back)
	}
	step(count, &p.count[id], back)
	step(avg, &p.avg[id], back)
}

// step turns *v into its delta against *prev, or back from it, and
// leaves the value in *prev. Deltas wrap, so every int64 comes back.
func step(v, prev *int64, back bool) {
	if back {
		*v += *prev
		*prev = *v
	} else {
		*v, *prev = *v-*prev, *v
	}
}

// cstSection reads the CST section into f and returns how it is
// stored, its templates counted only if templated.
func (br byteReader) cstSection(f *File) (CSTStorage, error) {
	sel := byte(cstRaw)
	if br.from(magicTemplates) {
		var err error
		if sel, err = br.r.ReadByte(); err != nil {
			return CSTStorage{}, err
		}
	}
	b, err := br.bytes()
	if err != nil {
		return CSTStorage{}, err
	}
	st := CSTStorage{Form: "raw", Raw: len(b), Stored: len(b)}
	switch sel {
	case cstRaw:
		f.CST, err = cst.Deserialize(b)
	case cstTemplated:
		if f.tmpl, err = untemplate(b); err == nil {
			f.CST = f.tmpl.table
			st.Form, st.Raw, st.Templates = "templated", f.CST.Bytes(), len(f.tmpl.tmpls)
		}
	default:
		err = fmt.Errorf("trace: unknown CST selector %d", sel)
	}
	if err != nil {
		return CSTStorage{}, err
	}
	st.Entries = f.CST.Len()
	return st, nil
}

// cstTemplates is a templated CST section as read: the table it
// rebuilds, each template, walked and decoded once, at Read, and each
// entry's template id and lifted row. DecodedSig decodes an entry by
// filling its row into its template's pattern.
type cstTemplates struct {
	table  *cst.Table
	tmpls  []sig.Template
	tid    []int64
	lifted []int64 // entry i's row is lifted[at[i]:at[i+1]]
	at     []int
}

// untemplate builds the table a templated section b stores, and
// returns it with its templates and rows. It refuses a template
// sig.ParseTemplate cannot walk, template ids out of range or not in
// first-use order, a column of other than the ints the entries and
// templates imply, more than maxCSTEntries entries or maxCSTSigBytes
// signature bytes, and an entry cst.Table.AppendAverage refuses: a
// duplicate signature, fewer than one call, or a duration sum past an
// int64.
func untemplate(b []byte) (*cstTemplates, error) {
	c := &cursor{b: b}
	nt, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if nt > uint64(len(b)) { // every template costs at least its length's byte
		return nil, fmt.Errorf("trace: %d CST templates claimed in %d bytes", nt, len(b))
	}
	// Each template, its length and the lifted values it takes.
	tmpls, tsize, widths := make([]sig.Template, nt), make([]int, nt), make([]int, nt)
	for i := range tmpls {
		l, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if l > uint64(len(b)-c.pos) {
			return nil, fmt.Errorf("trace: truncated CST template %d", i)
		}
		if tmpls[i], err = sig.ParseTemplate(string(b[c.pos : c.pos+int(l)])); err != nil {
			return nil, fmt.Errorf("trace: CST template %d: %w", i, err)
		}
		tsize[i], widths[i] = int(l), tmpls[i].Lifts()
		c.pos += int(l)
	}
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxCSTEntries {
		return nil, fmt.Errorf("trace: templated CST of %d entries", n)
	}
	tid, err := c.column(int(n), nil, nil)
	if err != nil {
		return nil, err
	}
	used, size := int64(0), 0 // size: at least one byte per lifted value
	for i, id := range tid {
		if id < 0 || id > used || id >= int64(nt) {
			return nil, fmt.Errorf("trace: CST entry %d names template %d, not one of the %d in first-use order", i, id, nt)
		}
		if id == used {
			used++
		}
		size += tsize[id] + widths[id]
	}
	switch {
	case used != int64(nt):
		return nil, fmt.Errorf("trace: %d CST templates stored, %d used", nt, used)
	case size > maxCSTSigBytes:
		return nil, fmt.Errorf("trace: templated CST rebuilds over %d signature bytes", size)
	}
	lens, lifts := make([]int, n), 0
	for i, id := range tid {
		lens[i] = widths[id]
		lifts += lens[i]
	}
	order := byTemplate(tid, int(nt))
	lifted, err := c.column(lifts, lens, order)
	var counts, avgs []int64
	if err == nil {
		counts, err = c.column(int(n), nil, order)
	}
	if err == nil {
		avgs, err = c.column(int(n), nil, order)
	}
	if err == nil && c.pos != len(b) {
		err = fmt.Errorf("trace: %d bytes past the templated CST", len(b)-c.pos)
	}
	if err != nil {
		return nil, err
	}
	t := &cstTemplates{table: cst.NewSized(int(n)), tmpls: tmpls, tid: tid, lifted: lifted, at: make([]int, n+1)}
	var s []byte
	prev := newPrevRows(widths)
	size = 0
	for i, id := range tid {
		t.at[i+1] = t.at[i] + lens[i]
		row := lifted[t.at[i]:t.at[i+1]]
		prev.delta(id, row, &counts[i], &avgs[i], true)
		if s, err = tmpls[id].Join(s[:0], row); err != nil {
			return nil, err
		}
		if size += len(s); size > maxCSTSigBytes {
			return nil, fmt.Errorf("trace: templated CST rebuilds over %d signature bytes", size)
		}
		if err := t.table.AppendAverage(string(s), counts[i], avgs[i]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// cursor reads a templated CST section.
type cursor struct {
	b   []byte
	pos int
}

func (c *cursor) uvarint() (uint64, error) {
	v, k := binary.Uvarint(c.b[c.pos:])
	if k <= 0 {
		return 0, fmt.Errorf("trace: bad uvarint at byte %d of the templated CST", c.pos)
	}
	c.pos += k
	return v, nil
}

// column reads a layout byte and its ints, and returns the n ints of
// rows of lengths lens (nil: one int each) they lay out, in entry
// order. order is the one appendColumn was given.
func (c *cursor) column(n int, lens []int, order []int) ([]int64, error) {
	if c.pos >= len(c.b) {
		return nil, fmt.Errorf("trace: templated CST cut short")
	}
	enc := c.b[c.pos]
	vs, k, err := sequitur.ReadInts[int64](c.b[c.pos+1:])
	if err != nil {
		return nil, err
	}
	c.pos += 1 + k
	if enc&inOrder == 0 || order == nil { // unlayout refuses the bit
		return unlayout(enc, vs, n, lens)
	}
	var olens []int
	if lens != nil {
		olens = make([]int, len(order))
		for j, i := range order {
			olens[j] = lens[i]
		}
	}
	if vs, err = unlayout(enc&^inOrder, vs, n, olens); err != nil {
		return nil, err
	}
	vs, _ = permute(vs, lens, order, true)
	return vs, nil
}
