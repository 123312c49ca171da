package trace

import "bytes"

// rawBody is f's raw body: its stored body, inflated if deflated.
func rawBody(f *File) []byte {
	s := f.form()
	body := s.data[s.at:]
	if bodyMagic(string(s.data[:len(magic)])) {
		body, _ = byteReader{r: bytes.NewReader(body)}.deflatedBody()
	}
	return body
}

// TimingForms reports how f stores its duration and interval sets, by
// their selectors: "packed", "deflated" or "raw" each.
func TimingForms(f *File) (dur, intv string) {
	body, ends := rawBody(f), f.form().ends
	form := func(sel byte) string {
		switch sel {
		case flagHalves, flagPacked:
			return "packed"
		case flagDeflated:
			return "deflated"
		}
		return "raw"
	}
	return form(body[ends[1]]), form(body[ends[2]])
}
