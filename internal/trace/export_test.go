package trace

// TimingForms reports how f stores its duration and interval sets:
// "packed", "deflated" or "raw" each.
func TimingForms(f *File) (dur, intv string) {
	form := func(s *storedSet) string {
		switch {
		case s.pack != nil:
			return "packed"
		case s.z != nil:
			return "deflated"
		}
		return "raw"
	}
	return form(&f.timing[0]), form(&f.timing[1])
}
