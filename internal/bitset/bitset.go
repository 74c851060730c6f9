// Package bitset provides dense, fixed-universe bit sets used throughout
// the hyperreconfiguration library to represent sets of reconfigurable
// units ("switches") and the context requirements / hypercontexts built
// from them.
//
// The Switch cost model of Lange & Middendorf identifies both context
// requirements and hypercontexts with subsets of a switch universe
// X = {x_0, ..., x_{n-1}}; the cost of an ordinary reconfiguration under
// hypercontext h is |h|.  Solvers therefore perform a very large number
// of union, subset and popcount operations over small universes (SHyRA
// has 48 switches).  Set packs the universe into 64-bit words so these
// operations are word-parallel and, for the in-place variants,
// allocation-free.
package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Set is a subset of a fixed universe {0, ..., N-1}.  The zero value is
// an empty set over an empty universe; use New to create a set with a
// given universe size.  All binary operations require both operands to
// share the same universe size and panic otherwise: mixing universes is
// always a programming error in this library, never a data condition.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set over the universe {0, ..., n-1}.
func New(n int) Set {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromMembers returns a set over {0, ..., n-1} containing the given members.
func FromMembers(n int, members ...int) Set {
	s := New(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// Universe returns the size of the universe the set ranges over.
func (s Set) Universe() int { return s.n }

// check panics if i is outside the universe.
func (s Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: element %d out of universe [0,%d)", i, s.n))
	}
}

func (s Set) same(t Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: universe mismatch %d vs %d", s.n, t.n))
	}
}

// Add inserts i into the set.
func (s Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set.
func (s Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether i is a member of the set.
func (s Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns |s|, the number of members.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no members.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	c := Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Clear removes all members in place.
func (s Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every universe element in place.
func (s Set) Fill() {
	if len(s.words) == 0 {
		return
	}
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	// Mask off bits beyond the universe in the last word.
	if rem := s.n % wordBits; rem != 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Full returns the complete universe set over {0, ..., n-1}.
func Full(n int) Set {
	s := New(n)
	s.Fill()
	return s
}

// UnionWith adds every member of t to s in place.
func (s Set) UnionWith(t Set) {
	s.same(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every member not in t, in place.
func (s Set) IntersectWith(t Set) {
	s.same(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// DifferenceWith removes every member of t from s in place.
func (s Set) DifferenceWith(t Set) {
	s.same(t)
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Union returns s ∪ t as a new set.
func (s Set) Union(t Set) Set {
	c := s.Clone()
	c.UnionWith(t)
	return c
}

// Intersect returns s ∩ t as a new set.
func (s Set) Intersect(t Set) Set {
	c := s.Clone()
	c.IntersectWith(t)
	return c
}

// Difference returns s \ t as a new set.
func (s Set) Difference(t Set) Set {
	c := s.Clone()
	c.DifferenceWith(t)
	return c
}

// SymmetricDifference returns s Δ t as a new set.  The size of the
// symmetric difference is the changeover cost |h Δ h'| of the paper's
// changeover-cost model variant.
func (s Set) SymmetricDifference(t Set) Set {
	s.same(t)
	c := Set{n: s.n, words: make([]uint64, len(s.words))}
	for i := range s.words {
		c.words[i] = s.words[i] ^ t.words[i]
	}
	return c
}

// SymmetricDifferenceCount returns |s Δ t| without allocating.
func (s Set) SymmetricDifferenceCount(t Set) int {
	s.same(t)
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] ^ t.words[i])
	}
	return c
}

// UnionCount returns |s ∪ t| without allocating.
func (s Set) UnionCount(t Set) int {
	s.same(t)
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] | t.words[i])
	}
	return c
}

// IsSubsetOf reports whether every member of s is in t.  In model terms:
// a context requirement c can be satisfied by hypercontext h exactly
// when c.IsSubsetOf(h).
func (s Set) IsSubsetOf(t Set) bool {
	s.same(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same members.
func (s Set) Equal(t Set) bool {
	s.same(t)
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Members returns the members in ascending order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for each member in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Words exposes the set's backing words without copying.  Bit i of the
// set lives at words[i/64] bit i%64; bits at and beyond the universe
// size are always zero.  The packed-state frontier engine builds flat
// per-generation slabs out of these words, so mutating the returned
// slice mutates the set.
func (s Set) Words() []uint64 { return s.words }

// WordsFor returns how many 64-bit words back a set over a universe of
// size n — the per-task stride of packed state slabs.
func WordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// FromWords wraps existing words as a Set over {0..n-1} without
// copying: a zero-copy view used to reconstruct sets out of packed
// state slabs.  The caller guarantees len(words) == WordsFor(n) and
// that no bit at or beyond n is set; both are programming errors, so
// FromWords panics on a length mismatch.
func FromWords(n int, words []uint64) Set {
	if len(words) != WordsFor(n) {
		panic(fmt.Sprintf("bitset: %d words for universe %d, want %d", len(words), n, WordsFor(n)))
	}
	return Set{n: n, words: words}
}

// CompareWords orders two word vectors lexicographically (word 0 most
// significant for the ordering, numeric comparison within a word).  It
// is the deterministic tie-breaker shared by the packed frontier engine
// and the reference solver; both must agree or beam truncation would
// diverge between them.  Panics on length mismatch.
func CompareWords(a, b []uint64) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("bitset: comparing word vectors of length %d and %d", len(a), len(b)))
	}
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// HashWords hashes a word vector to 64 bits by chaining the splitmix64
// mixing function across the words.  Each round is a bijection of the
// running state, so sparse vectors (the common case: few switches set)
// avalanche across the whole output range — a plain multiplicative fold
// leaves single-bit vectors linearly related and measurably collides.
// Equal vectors hash equal; distinct vectors may collide, so users must
// compare the full vector on hash equality.
func HashWords(words []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		x := h + w + 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		h = x
	}
	return h
}

// Key returns a compact string usable as a map key identifying the set's
// contents.  Two sets over the same universe have equal keys iff they
// are Equal.  The dominance-pruned multi-task DP uses keys to
// canonicalize per-task segment unions.
func (s Set) Key() string {
	var b strings.Builder
	b.Grow(len(s.words) * 8)
	for _, w := range s.words {
		for i := 0; i < 8; i++ {
			b.WriteByte(byte(w >> (8 * uint(i))))
		}
	}
	return b.String()
}

// bitChars maps a byte to its eight bits as '0'/'1' characters, bit 0
// in the lowest byte: stored little-endian, a byte of a set's word
// expands to eight characters of its bit string in one store.
var bitChars = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			t[b] |= uint64('0'+(b>>i)&1) << (8 * i)
		}
	}
	return t
}()

// AppendString appends the set's bit string (see String) to dst and
// returns the extended slice.  It grows dst at most once and
// allocates nothing when dst has room for Universe() more bytes.
func (s Set) AppendString(dst []byte) []byte {
	dst = slices.Grow(dst, s.n)
	start := len(dst)
	dst = dst[:start+s.n]
	out := dst[start:]
	full := s.n / 8
	for k := 0; k < full; k++ {
		binary.LittleEndian.PutUint64(out[8*k:], bitChars[byte(s.words[k/8]>>(8*(k%8)))])
	}
	if rem := s.n % 8; rem != 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], bitChars[byte(s.words[full/8]>>(8*(full%8)))])
		copy(out[8*full:], tail[:rem])
	}
	return dst
}

// String renders the set as a bit string, LSB (element 0) first, e.g.
// "10110000" for {0, 2, 3} over a universe of 8.  Matches the visual
// style of Figure 2 in the paper.
func (s Set) String() string {
	var stack [64]byte
	return string(s.AppendString(stack[:0]))
}

// Parse parses a bit string produced by String back into a set.  It
// reads eight characters at a time; a chunk holding anything but '0'
// and '1' is rescanned one character at a time, so the error names the
// first invalid character and its position.
func Parse(bitstr string) (Set, error) {
	s := New(len(bitstr))
	i := 0
	for ; i+8 <= len(bitstr); i += 8 {
		c := bitstr[i : i+8]
		x := uint64(c[0]) | uint64(c[1])<<8 | uint64(c[2])<<16 | uint64(c[3])<<24 |
			uint64(c[4])<<32 | uint64(c[5])<<40 | uint64(c[6])<<48 | uint64(c[7])<<56
		v := x ^ 0x3030303030303030 // '0' -> 0, '1' -> 1
		if v&^0x0101010101010101 != 0 {
			break
		}
		// Gather the eight 0/1 bytes into one byte: byte k's bit lands
		// at bit 56+k of the product, and no two partial products
		// collide or carry.
		s.words[i/wordBits] |= (v * 0x0102040810204080 >> 56) << uint(i%wordBits)
	}
	for ; i < len(bitstr); i++ {
		switch bitstr[i] {
		case '1':
			s.Add(i)
		case '0':
		default:
			return Set{}, fmt.Errorf("bitset: invalid character %q at position %d", bitstr[i], i)
		}
	}
	return s, nil
}
