package sequitur

import "fmt"

// Packer runs the paper's final Sequitur pass over a set of merged
// grammars (§3.5.2), one grammar at a time: the serialized integer
// arrays of all unique grammars are concatenated (with separators) into
// one symbol stream and compressed by another Sequitur grammar.
// Grammars from different ranks that share rules compress against each
// other even when they are not bytewise identical. The result depends
// only on the grammars and the order they were added in, so a caller
// may add them as it finds them.
//
// Each int32 is split into two 16-bit halves (offset by +1) so the
// pack's terminals stay in [0, 65536]: terminal 0 is the grammar
// separator.
type Packer struct{ g *Grammar }

// NewPacker returns a Packer holding the pack of no grammars.
func NewPacker() *Packer { return &Packer{g: New()} }

// Add appends one grammar to the pack.
func (p *Packer) Add(g Serialized) {
	for _, v := range g {
		u := uint32(v)
		p.g.Append(int32(u>>16) + 1)
		p.g.Append(int32(u&0xFFFF) + 1)
	}
	p.g.Append(0)
}

// Finish returns the pack of the grammars added so far.
func (p *Packer) Finish() Serialized { return p.g.Serialize() }

// Pack is a Packer fed gs in order.
func Pack(gs []Serialized) Serialized {
	p := NewPacker()
	for _, g := range gs {
		p.Add(g)
	}
	return p.Finish()
}

// Unpack reverses Pack.
func Unpack(pack Serialized) ([]Serialized, error) {
	var out []Serialized
	var cur []int32
	var hi int32 = -1
	bad := false
	pack.Walk(func(t int32, k int64) bool {
		for i := int64(0); i < k; i++ {
			switch {
			case t == 0:
				if hi >= 0 {
					bad = true
					return false
				}
				out = append(out, Serialized(cur))
				cur = nil
			case hi < 0:
				hi = t - 1
			default:
				cur = append(cur, int32(uint32(hi)<<16|uint32(t-1)))
				hi = -1
			}
		}
		return true
	})
	if bad || hi >= 0 || len(cur) != 0 {
		return nil, fmt.Errorf("sequitur: malformed grammar pack")
	}
	for i, g := range out {
		if len(g) == 0 {
			return nil, fmt.Errorf("sequitur: empty grammar %d in pack", i)
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("sequitur: pack grammar %d: %w", i, err)
		}
	}
	return out, nil
}
