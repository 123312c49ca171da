package sequitur

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// TestReadIntsRefusesHostile: ReadInts refuses what AppendInts never
// writes, and an int its type cannot hold instead of wrapping it: read
// as an int32, 2^32+5 would be 5. As an int64 it reads back.
func TestReadIntsRefusesHostile(t *testing.T) {
	wide := AppendInts(nil, []int64{7, 1<<32 + 5})
	for name, b := range map[string][]byte{
		"int past int32":       wide,
		"int below int32":      AppendInts(nil, []int64{math.MinInt32 - 1}),
		"count past the bytes": binary.AppendUvarint(nil, 3),
		"truncated int":        {1, 0x80},
		"no count":             nil,
		"overlong int":         {1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	} {
		if vs, _, err := ReadInts[int32](b); err == nil {
			t.Errorf("%s: read as %v", name, vs)
		}
	}
	if vs, n, err := ReadInts[int64](wide); err != nil || n != len(wide) || !slices.Equal(vs, []int64{7, 1<<32 + 5}) {
		t.Fatalf("int64s read back as %v (%d of %d bytes, %v)", vs, n, len(wide), err)
	}
}
