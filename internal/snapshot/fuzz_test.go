package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzSeeds returns the seed inputs committed under
// testdata/fuzz/FuzzDecoder: a pristine snapshot, one a Codec walk
// reads in full, plus the three corruption families the decoder must
// reject without panicking — truncated, bit-flipped, and
// section-reordered files. Every file but the codec's is spelled out
// with frame.
func fuzzSeeds() map[string][]byte {
	le := binary.LittleEndian
	alpha := []byte{0xAB, 1, 0}
	alpha = le.AppendUint32(alpha, 0xDEADBEEF)
	alpha = le.AppendUint64(alpha, 0x0123456789ABCDEF)
	alpha = le.AppendUint64(alpha, uint64(-42&math.MaxUint64))
	alpha = le.AppendUint32(alpha, uint32(-7&math.MaxUint32))
	alpha = le.AppendUint64(alpha, 1<<63) // math.MinInt64
	alpha = le.AppendUint64(alpha, math.Float64bits(math.Pi))
	beta := le.AppendUint32(nil, 3)
	for _, v := range []int64{3, -1, 1 << 40} {
		beta = le.AppendUint64(beta, uint64(v))
	}
	beta = le.AppendUint32(beta, 2)
	for _, v := range []int32{-2, 9} {
		beta = le.AppendUint32(beta, uint32(v))
	}
	beta = le.AppendUint32(beta, 2)
	beta = le.AppendUint64(beta, 0)
	beta = le.AppendUint64(beta, math.MaxUint64)
	beta = le.AppendUint32(beta, 0) // an empty []float64
	var gamma []byte
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		gamma = le.AppendUint64(gamma, math.Float64bits(f))
	}
	gamma = le.AppendUint64(gamma, 0x7FF8000000000001) // NaN with a payload
	gamma = le.AppendUint32(gamma, 3)
	gamma = append(gamma, 1, 0, 1)
	valid := frame(section{"alpha", alpha}, section{"beta", beta}, section{"gamma", gamma})

	sample := fullSample()
	codecValid := layout(&sample)

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40

	// Same sections, written in a different order: framing and
	// checksums are all valid, only the order contract is violated.
	reordered := frame(section{"beta", []byte{1}}, section{"alpha", []byte{2}}, section{"gamma", []byte{3}})

	return map[string][]byte{
		"valid":             valid,
		"codec-valid":       codecValid,
		"truncated":         valid[:len(valid)*2/3],
		"bit-flipped":       flipped,
		"section-reordered": reordered,
		"empty":             {},
		"magic-only":        []byte(magic),
	}
}

// FuzzDecoder feeds arbitrary bytes through the framing checks —
// NewDecoder and Close — and then through a reading Codec, every
// primitive, Len, Resize and Slice included, the path every checkpoint
// restore takes. The contract under fuzzing is purely "never panic,
// never allocate absurdly": corrupt input must surface as an error.
func FuzzDecoder(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(data)
		if err != nil {
			return
		}
		_ = d.Close()

		c, err := NewReader(data)
		if err != nil {
			t.Fatalf("NewReader rejected what NewDecoder accepted: %v", err)
		}
		var v codecSample
		v.walk(c)
		_ = c.Close()
	})
}

// TestGenerateFuzzCorpus regenerates the committed seed corpus. It is
// a no-op unless SNAPSHOT_GEN_CORPUS=1 is set, so routine test runs
// never rewrite testdata.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("SNAPSHOT_GEN_CORPUS") != "1" {
		t.Skip("set SNAPSHOT_GEN_CORPUS=1 to regenerate testdata/fuzz/FuzzDecoder")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecoder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, seed := range fuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
