package cst

import "sort"

// SerializeExact is the exact form AppendExact lays into a buffer,
// standing alone: what the tests compare tables by.
func (t *Table) SerializeExact() []byte {
	return t.AppendExact(make([]byte, 0, t.ExactSize()))
}

// TermsSorted returns all terminals ordered by signature bytes.
func (t *Table) TermsSorted() []int32 {
	out := make([]int32, t.Len())
	for i := range out {
		out[i] = int32(i)
	}
	sort.Slice(out, func(i, j int) bool { return t.sigs[out[i]] < t.sigs[out[j]] })
	return out
}
