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
// Each int32 v is one terminal, zigzag(v)+2, when zigzag(v) < 2³⁰,
// which holds for every count, terminal, rule reference and exponent
// below 2²⁹. Any other int is the escape terminal 1 followed by its
// zigzag's high and low 16-bit halves, each +2. Terminal 0 is the
// grammar separator.
type Packer struct{ g *Grammar }

// Terminals of the pack alphabet.
const (
	packSep    = 0       // ends a grammar
	packEscape = 1       // the next two terminals are an int's 16-bit halves
	packBase   = 2       // the terminal of zigzag value 0, and of half 0
	packDirect = 1 << 30 // zigzag values below this are one terminal
)

// NewPacker returns a Packer holding the pack of no grammars.
func NewPacker() *Packer { return &Packer{g: New()} }

// Add appends one grammar to the pack.
func (p *Packer) Add(g Serialized) {
	for _, v := range g {
		z := uint32(v<<1) ^ uint32(v>>31)
		if z < packDirect {
			p.g.Append(int32(z) + packBase)
			continue
		}
		p.g.Append(packEscape)
		p.g.Append(int32(z>>16) + packBase)
		p.g.Append(int32(z&0xFFFF) + packBase)
	}
	p.g.Append(packSep)
}

// Finish returns the pack of the grammars added so far.
func (p *Packer) Finish() Serialized { return p.g.Serialize() }

// Unpack reverses a Packer's Finish. It refuses a pack of more than maxInts grammar
// ints (maxInts <= 0 disables the cap) and any int not written the one
// way Add writes it.
func Unpack(pack Serialized, maxInts int64) ([]Serialized, error) {
	var owed, z uint32 // halves still owed to an escaped int, and its zigzag so far
	return unpack(pack, maxInts, func(t int32) (int32, bool, bool) {
		switch {
		case owed > 0:
			if t < packBase || t-packBase > 0xFFFF {
				return 0, false, false
			}
			z, owed = z<<16|uint32(t-packBase), owed-1
			if owed > 0 {
				return 0, false, true
			}
			if z < packDirect {
				return 0, false, false
			}
		case t == packEscape:
			z, owed = 0, 2
			return 0, false, true
		case t-packBase >= packDirect:
			return 0, false, false
		default:
			z = uint32(t - packBase)
		}
		return int32(z>>1) ^ -int32(z&1), true, true
	}, func() bool { return owed > 0 })
}

// UnpackHalves reverses the pack older writers made, in which every int
// was two terminals: its high and low 16-bit halves, each +1.
func UnpackHalves(pack Serialized, maxInts int64) ([]Serialized, error) {
	var hi int32 = -1
	return unpack(pack, maxInts, func(t int32) (int32, bool, bool) {
		if hi < 0 {
			hi = t - 1
			return 0, false, true
		}
		v := int32(uint32(hi)<<16 | uint32(t-1))
		hi = -1
		return v, true, true
	}, func() bool { return hi >= 0 })
}

// unpack splits pack's expansion at separators into grammars. sym takes
// each other terminal and returns the int it completes, if any, and
// false if the terminal cannot come next; partial reports an int begun
// but not completed.
func unpack(pack Serialized, maxInts int64, sym func(t int32) (v int32, complete, ok bool), partial func() bool) ([]Serialized, error) {
	var out []Serialized
	var cur []int32
	var ints int64
	var err error
	pack.Walk(func(t int32, k int64) bool {
		for i := int64(0); i < k; i++ {
			if t == packSep {
				if partial() || len(cur) == 0 {
					err = fmt.Errorf("sequitur: malformed grammar pack: grammar %d is empty or cut", len(out))
					return false
				}
				out = append(out, Serialized(cur))
				cur = nil
				continue
			}
			v, complete, ok := sym(t)
			if !ok {
				err = fmt.Errorf("sequitur: malformed grammar pack: terminal %d in grammar %d", t, len(out))
				return false
			}
			if complete {
				if ints++; maxInts > 0 && ints > maxInts {
					err = fmt.Errorf("sequitur: grammar pack holds more than %d ints", maxInts)
					return false
				}
				cur = append(cur, v)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(cur) != 0 || partial() {
		return nil, fmt.Errorf("sequitur: malformed grammar pack: no separator after grammar %d", len(out))
	}
	for i, g := range out {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("sequitur: pack grammar %d: %w", i, err)
		}
	}
	return out, nil
}
