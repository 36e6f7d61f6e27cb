package rng

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"
)

// The stream pin. Each sampler below draws pinDraws values from every
// pinned generator — NewSeeded of four seeds, three Stream ids of one
// master seed, and two set states whose first outputs are 0 and 1<<11
// (so the edge coins below meet their boundary once) — and folds the
// values, then the generator's exported state, into one FNV-1a
// digest. The digests were recorded with the generator behind the old
// Source interface, so a change to the generator, its seeding or any
// sampler that moves one draw, one rejection or one float rounding
// fails here.

const pinDraws = 4096

func pinGenerators(t *testing.T) []*Rand {
	out := []*Rand{
		NewSeeded(0), NewSeeded(1), NewSeeded(42), NewSeeded(math.MaxUint64),
		Stream(7, 0), Stream(7, 1), Stream(7, 999),
	}
	// The first output is rotl(s0+s3, 23) + s0: 0 for {0, 1, 0, 0},
	// and rotl(1<<52, 23) = 1<<11 for {0, 0, 0, 1<<52}.
	for _, words := range [][4]uint64{{0, 1, 0, 0}, {0, 0, 0, 1 << 52}} {
		r := NewSeeded(0)
		if err := r.SetState(KindXoshiro256, words); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// pinTrialSizes splits the pinDraws trials of an AppendTrials digest
// over calls of different lengths, so the generator's position is
// handed from call to call, empty calls included.
var pinTrialSizes = []int{0, 1, 2, 3, 7, 64, 1000, 3019}

// pinProbs are the coin probabilities pinned for Bool and
// AppendTrials: no draw (0, 1, 2), the edges of the 53-bit coin
// (2⁻⁵⁴ rounds up to one success value, 2⁻⁵³ is exactly one, 3·2⁻⁵⁴
// sits between one and two, 1−2⁻⁵³ is the largest p below 1), two
// ordinary rates, and NaN, which draws and never succeeds.
var pinProbs = []struct {
	name string
	p    float64
}{
	{"0", 0},
	{"2^-54", 0x1p-54},
	{"2^-53", 0x1p-53},
	{"3*2^-54", 3 * 0x1p-54},
	{"0.02", 0.02},
	{"0.5", 0.5},
	{"1-2^-53", 1 - 0x1p-53},
	{"1", 1},
	{"2", 2},
	{"NaN", math.NaN()},
}

type pinSampler struct {
	name string
	draw func(r *Rand, h hash.Hash64)
}

func putPin(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func pinFloat(h hash.Hash64, f float64) { putPin(h, math.Float64bits(f)) }

func pinSamplers() []pinSampler {
	out := []pinSampler{
		{"Uint64", func(r *Rand, h hash.Hash64) {
			for i := 0; i < pinDraws; i++ {
				putPin(h, r.Uint64())
			}
		}},
		{"Float64", func(r *Rand, h hash.Hash64) {
			for i := 0; i < pinDraws; i++ {
				pinFloat(h, r.Float64())
			}
		}},
	}
	intns := []struct {
		name string
		n    int
	}{{"1", 1}, {"2", 2}, {"3", 3}, {"7", 7}, {"1000", 1000}, {"2^62+1", 1<<62 + 1}}
	for _, c := range intns {
		n := c.n
		out = append(out, pinSampler{"Intn(" + c.name + ")", func(r *Rand, h hash.Hash64) {
			for i := 0; i < pinDraws; i++ {
				putPin(h, uint64(r.Intn(n)))
			}
		}})
	}
	for _, c := range pinProbs {
		p := c.p
		out = append(out, pinSampler{"Bool(" + c.name + ")", func(r *Rand, h hash.Hash64) {
			for i := 0; i < pinDraws; i++ {
				if r.Bool(p) {
					putPin(h, 1)
				} else {
					putPin(h, 0)
				}
			}
		}})
	}
	for _, c := range pinProbs {
		p := c.p
		out = append(out, pinSampler{"AppendTrials(" + c.name + ")", func(r *Rand, h hash.Hash64) {
			var idx []int
			for _, n := range pinTrialSizes {
				idx = r.AppendTrials(idx[:0], n, p)
				putPin(h, uint64(len(idx)))
				for _, i := range idx {
					putPin(h, uint64(i))
				}
			}
		}})
	}
	for _, c := range []struct {
		name   string
		lambda float64
	}{{"0.5", 0.5}, {"7", 7}, {"60", 60}, {"61", 61}, {"410", 410}} {
		lambda := c.lambda
		out = append(out, pinSampler{"Poisson(" + c.name + ")", func(r *Rand, h hash.Hash64) {
			for i := 0; i < pinDraws; i++ {
				putPin(h, uint64(r.Poisson(lambda)))
			}
		}})
	}
	zipf := NewZipf(100, 1.1)
	return append(out,
		pinSampler{"Pareto(1,2)", func(r *Rand, h hash.Hash64) {
			for i := 0; i < pinDraws; i++ {
				pinFloat(h, r.Pareto(1, 2))
			}
		}},
		pinSampler{"ExpFloat64", func(r *Rand, h hash.Hash64) {
			for i := 0; i < pinDraws; i++ {
				pinFloat(h, r.ExpFloat64())
			}
		}},
		pinSampler{"NormFloat64", func(r *Rand, h hash.Hash64) {
			for i := 0; i < pinDraws; i++ {
				pinFloat(h, r.NormFloat64())
			}
		}},
		pinSampler{"Zipf(100,1.1)", func(r *Rand, h hash.Hash64) {
			for i := 0; i < pinDraws; i++ {
				putPin(h, uint64(zipf.Sample(r)))
			}
		}},
	)
}

var pinnedStreamDigests = map[string]uint64{
	"Uint64":                0x2d8f5a19ad843d92,
	"Float64":               0xffdc643ab19d64cc,
	"Intn(1)":               0x10612311805bdcea,
	"Intn(2)":               0x781235cd11ac620a,
	"Intn(3)":               0xdf42de7b006a34e2,
	"Intn(7)":               0xbd01db19b6d05b00,
	"Intn(1000)":            0xc290bacf87e5dd46,
	"Intn(2^62+1)":          0xdab909d7e2fc08e7,
	"Bool(0)":               0x43114fe1c9050ffb,
	"Bool(2^-54)":           0xe2ab1d5f58a62dfb,
	"Bool(2^-53)":           0xe2ab1d5f58a62dfb,
	"Bool(3*2^-54)":         0xd0d58d111b92368e,
	"Bool(0.02)":            0x516ffd99fe2034af,
	"Bool(0.5)":             0x22e585585689368a,
	"Bool(1-2^-53)":         0x6d4cfa9ad6ccdcea,
	"Bool(1)":               0xa82031f948940ffb,
	"Bool(2)":               0xa82031f948940ffb,
	"Bool(NaN)":             0x10612311805bdcea,
	"AppendTrials(0)":       0xde10e723e0872cfb,
	"AppendTrials(2^-54)":   0x5925e1e65e94a61b,
	"AppendTrials(2^-53)":   0x5925e1e65e94a61b,
	"AppendTrials(3*2^-54)": 0xda2107f8308de24e,
	"AppendTrials(0.02)":    0x6c0fce3bc0801892,
	"AppendTrials(0.5)":     0x9bc5d58f7f62524f,
	"AppendTrials(1-2^-53)": 0xfe856a7ddaf430d1,
	"AppendTrials(1)":       0x93b63d0c81f46458,
	"AppendTrials(2)":       0x93b63d0c81f46458,
	"AppendTrials(NaN)":     0x81a71453be5d1eea,
	"Poisson(0.5)":          0x2c9f54c26809dae3,
	"Poisson(7)":            0xa328bc9c142eb277,
	"Poisson(60)":           0x193edfddc7fabc54,
	"Poisson(61)":           0x6f52f2ffcbb8b310,
	"Poisson(410)":          0xddd44789a58b0d33,
	"Pareto(1,2)":           0xa6541179dc6f106c,
	"ExpFloat64":            0x74db8ce671ff751b,
	"NormFloat64":           0xe003b52c34cf5a88,
	"Zipf(100,1.1)":         0xc6ad366d0b5e9271,
}

func TestStreamPinned(t *testing.T) {
	for _, s := range pinSamplers() {
		h := fnv.New64a()
		for _, r := range pinGenerators(t) {
			s.draw(r, h)
			kind, words := r.State()
			putPin(h, uint64(kind))
			for _, w := range words {
				putPin(h, w)
			}
		}
		want, ok := pinnedStreamDigests[s.name]
		if !ok {
			t.Errorf("%q: no recorded digest (got %#016x)", s.name, h.Sum64())
			continue
		}
		if got := h.Sum64(); got != want {
			t.Errorf("%s: stream digest %#016x, recorded %#016x", s.name, got, want)
		}
	}
}

// TestXoshiroKnownAnswer runs xoshiro256++ from the state {1, 2, 3, 4}.
// The first output follows by hand: rotl(1+4, 23) + 1 = 41943041.
func TestXoshiroKnownAnswer(t *testing.T) {
	want := []uint64{
		41943041, 58720359, 3588806011781223, 3591011842654386,
		9228616714210784205, 9973669472204895162, 14011001112246962877,
		12406186145184390807, 15849039046786891736, 10450023813501588000,
	}
	r := NewSeeded(0)
	if err := r.SetState(KindXoshiro256, [4]uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("draw %d: %d, want %d", i, got, w)
		}
	}
}
