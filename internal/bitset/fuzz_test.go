package bitset

import (
	"fmt"
	"math/rand"
	"testing"
)

// refString and refParse are the per-bit codec the word-at-a-time
// AppendString and Parse must agree with exactly.
func refString(s Set) string {
	b := make([]byte, s.Universe())
	for i := range b {
		b[i] = '0'
		if s.Contains(i) {
			b[i] = '1'
		}
	}
	return string(b)
}

func refParse(bitstr string) (Set, error) {
	s := New(len(bitstr))
	for i := 0; i < len(bitstr); i++ {
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

// FuzzParse checks Parse never panics, accepts and rejects exactly what
// the per-bit reference does (with the same error), that accepted
// inputs round-trip exactly through String, and that AppendString
// appends the reference bit string after an arbitrary prefix.
func FuzzParse(f *testing.F) {
	f.Add("", "")
	f.Add("0", "x")
	f.Add("10110000", "")
	f.Add("1111111111111111111111111111111111111111111111111111111111111111111", "pre")
	f.Add("10x1", "")
	f.Add("0101010101010101x", "")
	f.Add("01010101\x000101", "ab")
	f.Add("0101x010", "")
	f.Add("0000000021111111", "")
	f.Add("0000000011111111000000001111111100000000111111110000000011111111", "")
	f.Fuzz(func(t *testing.T, s, prefix string) {
		set, err := Parse(s)
		want, wantErr := refParse(s)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("Parse(%q) error %v, reference %v", s, err, wantErr)
		}
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		if !set.Equal(want) {
			t.Fatalf("Parse(%q) = %v, reference %v", s, set.Members(), want.Members())
		}
		if got := set.String(); got != s {
			t.Fatalf("round trip changed %q to %q", s, got)
		}
		if set.Universe() != len(s) {
			t.Fatalf("universe %d for input length %d", set.Universe(), len(s))
		}
		if got := string(set.AppendString([]byte(prefix))); got != prefix+refString(set) {
			t.Fatalf("AppendString(%q) = %q, want %q", prefix, got, prefix+refString(set))
		}
	})
}

// TestBitStringCodecMatchesPerBit runs the codec over every universe
// from 0 to 200 bits (partial bytes and words on both sides of each
// boundary) with random members, and Parse over the same strings with
// one character corrupted, against the per-bit reference.
func TestBitStringCodecMatchesPerBit(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= 200; n++ {
		s := New(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				s.Add(i)
			}
		}
		want := refString(s)
		if got := s.String(); got != want {
			t.Fatalf("n=%d: String %q, want %q", n, got, want)
		}
		if got := string(s.AppendString([]byte("ab"))); got != "ab"+want {
			t.Fatalf("n=%d: AppendString %q, want %q", n, got, "ab"+want)
		}
		back, err := Parse(want)
		if err != nil || !back.Equal(s) {
			t.Fatalf("n=%d: Parse(%q) = %v, %v", n, want, back.Members(), err)
		}
		if n == 0 {
			continue
		}
		// One invalid character anywhere must fail with the
		// reference's error.
		bad := []byte(want)
		bad[r.Intn(n)] = "2x/\x00\xff"[r.Intn(5)]
		_, err = Parse(string(bad))
		_, wantErr := refParse(string(bad))
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("n=%d: Parse(%q) error %v, want %v", n, bad, err, wantErr)
		}
	}
}
