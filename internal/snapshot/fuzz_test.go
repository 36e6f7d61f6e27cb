package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzSeeds returns the seed inputs committed under
// testdata/fuzz/FuzzDecoder: a pristine snapshot, one a Codec walk
// reads in full, plus the three corruption families the decoder must
// reject without panicking — truncated, bit-flipped, and
// section-reordered files.
func fuzzSeeds() map[string][]byte {
	enc := NewEncoder(nil)
	valid := append([]byte(nil), buildSample(enc)...)

	w := NewWriter(nil)
	sample := fullSample()
	sample.walk(w)
	_ = w.Close()
	codecValid := append([]byte(nil), w.Bytes()...)

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40

	// Same sections, written in a different order: framing and
	// checksums are all valid, only the order contract is violated.
	enc.Reset()
	enc.Begin("beta")
	enc.Uint8(1)
	enc.End()
	enc.Begin("alpha")
	enc.Uint8(2)
	enc.End()
	enc.Begin("gamma")
	enc.Uint8(3)
	enc.End()
	reordered := append([]byte(nil), enc.Finish()...)

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

// FuzzDecoder feeds arbitrary bytes through the full decode path —
// construction, in-order section walk, every read primitive, Done and
// Close — and then through a reading Codec, Len, Resize and Slice
// included, the path every checkpoint restore takes. The contract
// under fuzzing is purely "never panic, never allocate absurdly":
// corrupt input must surface as an error.
func FuzzDecoder(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(data)
		if err != nil {
			return
		}
		for _, name := range []string{"alpha", "beta", "gamma"} {
			sec, err := d.Section(name)
			if err != nil {
				return
			}
			sec.Uint8()
			sec.Bool()
			sec.Uint32()
			sec.Uint64()
			sec.Int()
			sec.Int32()
			sec.Int64()
			sec.Float64()
			sec.Ints(nil)
			sec.Int32s(nil)
			sec.Uint64s(nil)
			sec.Float64s(nil)
			sec.Bools(nil)
			_ = sec.Done()
			_ = sec.Err()
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
