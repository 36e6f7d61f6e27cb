package rng

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// firstDrawState returns a state whose first output u has u>>11 == k
// (k < 2⁵³): with s0 = 0 the output is rotl(s3, 23).
func firstDrawState(k uint64) [4]uint64 {
	if k == 0 {
		return [4]uint64{0, 1, 0, 0} // s3 = 0 too; s1 keeps the state nonzero
	}
	return [4]uint64{0, 0, 0, bits.RotateLeft64(k<<11, -23)}
}

// FuzzAppendTrials holds the integer coin to the float one: from any
// nonzero state, for any n ≤ 4,096 and any p (raw bits), AppendTrials
// must return the indices a Bool(p) loop on a copy of the generator
// returns and leave the stream where that loop leaves it. The seeds
// put the first draw on the boundary of a coin p = k·2⁻⁵³ and of its
// two float neighbours, so rounding the bound down instead of up, or
// comparing with ≤, fails on them.
func FuzzAppendTrials(f *testing.F) {
	add := func(words [4]uint64, n uint16, p float64) {
		f.Add(words[0], words[1], words[2], words[3], n, math.Float64bits(p))
	}
	for k := uint64(0); k <= 3; k++ {
		p := float64(k) * 0x1p-53
		for _, q := range []float64{math.Nextafter(p, 0), p, math.Nextafter(p, 1)} {
			add(firstDrawState(k), 3, q)
		}
	}
	top := uint64(1)<<53 - 1
	for _, k := range []uint64{top - 1, top} {
		add(firstDrawState(k), 2, 1-0x1p-53)
	}
	seeded := NewSeeded(7)
	words := [4]uint64{seeded.s0, seeded.s1, seeded.s2, seeded.s3}
	for _, p := range []float64{
		math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		math.Float64frombits(0x7ff8000000000001), math.Inf(1), 0.02, 0.5,
	} {
		add(words, 4096, p)
	}
	f.Fuzz(func(t *testing.T, s0, s1, s2, s3 uint64, n uint16, pbits uint64) {
		if s0|s1|s2|s3 == 0 {
			t.Skip("an all-zero state is not a xoshiro256++ generator")
		}
		got := Rand{s0, s1, s2, s3}
		ref := got
		trials, p := int(n%4097), math.Float64frombits(pbits)
		want := boolLoopReference(&ref, trials, p)
		if idx := got.AppendTrials(nil, trials, p); !slices.Equal(idx, want) {
			t.Fatalf("p=%v (%#x) n=%d: AppendTrials %v, Bool loop %v", p, pbits, trials, idx, want)
		}
		if a, b := got.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("p=%v n=%d: next Uint64 %#x, after the Bool loop %#x", p, trials, a, b)
		}
	})
}
