package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildSample encodes the canonical three-section test snapshot used
// across the round-trip, corruption and fuzz suites. It exercises
// every primitive, the exact-bit float contract (NaN payloads, ±Inf,
// negative zero) and empty slices.
func buildSample(enc *Encoder) []byte {
	enc.Reset()
	enc.Begin("alpha")
	enc.Uint8(0xAB)
	enc.Bool(true)
	enc.Bool(false)
	enc.Uint32(0xDEADBEEF)
	enc.Uint64(0x0123456789ABCDEF)
	enc.Int(-42)
	enc.Int32(-7)
	enc.Int64(math.MinInt64)
	enc.Float64(math.Pi)
	enc.End()
	enc.Begin("beta")
	enc.Ints([]int{3, -1, 1 << 40})
	enc.Int32s([]int32{-2, 9})
	enc.Uint64s([]uint64{0, math.MaxUint64})
	enc.Float64s(nil)
	enc.End()
	enc.Begin("gamma")
	enc.Float64(math.Inf(1))
	enc.Float64(math.Inf(-1))
	enc.Float64(math.Copysign(0, -1))
	enc.Float64(math.Float64frombits(0x7FF8000000000001)) // NaN with a payload
	enc.Bools([]bool{true, false, true})
	enc.End()
	return enc.Finish()
}

// readSample decodes buildSample's snapshot, failing the test on any
// value drift.
func readSample(t *testing.T, data []byte) {
	t.Helper()
	d, err := NewDecoder(data)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	sec, err := d.Section("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := sec.Uint8(); got != 0xAB {
		t.Fatalf("Uint8 = %#x", got)
	}
	if !sec.Bool() || sec.Bool() {
		t.Fatal("Bool round-trip drifted")
	}
	if got := sec.Uint32(); got != 0xDEADBEEF {
		t.Fatalf("Uint32 = %#x", got)
	}
	if got := sec.Uint64(); got != 0x0123456789ABCDEF {
		t.Fatalf("Uint64 = %#x", got)
	}
	if got := sec.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if got := sec.Int32(); got != -7 {
		t.Fatalf("Int32 = %d", got)
	}
	if got := sec.Int64(); got != math.MinInt64 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := sec.Float64(); got != math.Pi {
		t.Fatalf("Float64 = %v", got)
	}
	if err := sec.Done(); err != nil {
		t.Fatal(err)
	}
	sec, err = d.Section("beta")
	if err != nil {
		t.Fatal(err)
	}
	ints := sec.Ints(nil)
	if len(ints) != 3 || ints[0] != 3 || ints[1] != -1 || ints[2] != 1<<40 {
		t.Fatalf("Ints = %v", ints)
	}
	i32 := sec.Int32s(nil)
	if len(i32) != 2 || i32[0] != -2 || i32[1] != 9 {
		t.Fatalf("Int32s = %v", i32)
	}
	u64 := sec.Uint64s(nil)
	if len(u64) != 2 || u64[0] != 0 || u64[1] != math.MaxUint64 {
		t.Fatalf("Uint64s = %v", u64)
	}
	if fs := sec.Float64s(nil); len(fs) != 0 {
		t.Fatalf("empty Float64s = %v", fs)
	}
	if err := sec.Done(); err != nil {
		t.Fatal(err)
	}
	sec, err = d.Section("gamma")
	if err != nil {
		t.Fatal(err)
	}
	if got := sec.Float64(); !math.IsInf(got, 1) {
		t.Fatalf("+Inf drifted to %v", got)
	}
	if got := sec.Float64(); !math.IsInf(got, -1) {
		t.Fatalf("-Inf drifted to %v", got)
	}
	if got := sec.Float64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("-0 drifted to %v (bits %#x)", got, math.Float64bits(got))
	}
	if got := sec.Float64(); math.Float64bits(got) != 0x7FF8000000000001 {
		t.Fatalf("NaN payload drifted to bits %#x", math.Float64bits(got))
	}
	bs := sec.Bools(nil)
	if len(bs) != 3 || !bs[0] || bs[1] || !bs[2] {
		t.Fatalf("Bools = %v", bs)
	}
	if err := sec.Done(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTrip pins exact-value round-tripping of every primitive.
func TestRoundTrip(t *testing.T) {
	readSample(t, buildSample(NewEncoder(nil)))
}

// TestEncoderReuse pins the reusable-buffer contract: Reset cycles
// produce identical bytes and, once the buffer reached its high-water
// mark, encoding allocates nothing.
func TestEncoderReuse(t *testing.T) {
	enc := NewEncoder(nil)
	first := append([]byte(nil), buildSample(enc)...)
	second := buildSample(enc)
	if string(first) != string(second) {
		t.Fatal("re-encoding after Reset changed the bytes")
	}
	if allocs := testing.AllocsPerRun(50, func() { buildSample(enc) }); allocs != 0 {
		t.Fatalf("warm encoder allocates %v times per snapshot, want 0", allocs)
	}
}

// TestTruncationMatrix cuts the file at EVERY length shorter than the
// original: each prefix must fail — at construction or while reading —
// and never panic or decode cleanly.
func TestTruncationMatrix(t *testing.T) {
	data := buildSample(NewEncoder(nil))
	for cut := 0; cut < len(data); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("truncation to %d bytes panicked: %v", cut, r)
				}
			}()
			if _, err := NewDecoder(data[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes passed NewDecoder (file checksum should fail)", cut, len(data))
			}
		}()
	}
}

// TestBitFlipMatrix flips one bit at every byte offset: the file-level
// checksum must reject every mutation before any state is parsed.
func TestBitFlipMatrix(t *testing.T) {
	data := buildSample(NewEncoder(nil))
	mut := make([]byte, len(data))
	for off := 0; off < len(data); off++ {
		copy(mut, data)
		mut[off] ^= 0x04
		if _, err := NewDecoder(mut); err == nil {
			t.Fatalf("bit flip at offset %d passed NewDecoder", off)
		}
	}
}

// TestSectionOrderViolation pins that consuming sections out of order
// is a structured error naming both sections, not a misassembled
// restore.
func TestSectionOrderViolation(t *testing.T) {
	data := buildSample(NewEncoder(nil))
	d, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Section("beta")
	if err == nil {
		t.Fatal("out-of-order Section succeeded")
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not *snapshot.Error", err)
	}
	if se.Section != "alpha" || !strings.Contains(se.Msg, "order violation") {
		t.Fatalf("unexpected structured error: %+v", se)
	}
}

// TestStructuredReadErrors drives the cursor's failure modes: reads
// past the payload end, bad bool bytes, giant declared lengths and
// unconsumed bytes must each latch an *Error carrying the section name
// and offset.
func TestStructuredReadErrors(t *testing.T) {
	enc := NewEncoder(nil)
	enc.Reset()
	enc.Begin("s")
	enc.Uint32(7)
	enc.End()
	data := enc.Finish()

	d, _ := NewDecoder(data)
	sec, err := d.Section("s")
	if err != nil {
		t.Fatal(err)
	}
	sec.Uint64() // 8 bytes from a 4-byte payload
	var se *Error
	if !errors.As(sec.Err(), &se) || se.Section != "s" || !strings.Contains(se.Msg, "truncated") {
		t.Fatalf("overread error = %v", sec.Err())
	}
	if got := sec.Uint64(); got != 0 {
		t.Fatalf("read after latched error returned %d, want 0", got)
	}

	enc.Reset()
	enc.Begin("s")
	enc.Uint8(2) // not a valid bool byte
	enc.Uint32(math.MaxUint32)
	enc.End()
	data = enc.Finish()
	d, _ = NewDecoder(data)
	sec, _ = d.Section("s")
	sec.Bool()
	if err := sec.Err(); err == nil || !strings.Contains(err.Error(), "bad bool") {
		t.Fatalf("bad bool byte error = %v", err)
	}

	d, _ = NewDecoder(data)
	sec, _ = d.Section("s")
	sec.Uint8()
	sec.Float64s(nil) // declared length 2^32-1 with no bytes behind it
	if err := sec.Err(); err == nil || !strings.Contains(err.Error(), "exceeds remaining") {
		t.Fatalf("giant length error = %v", err)
	}

	d, _ = NewDecoder(data)
	sec, _ = d.Section("s")
	sec.Uint8()
	if err := sec.Done(); err == nil || !strings.Contains(err.Error(), "left unread") {
		t.Fatalf("leftover-bytes error = %v", err)
	}
}

// TestDecoderClose pins the trailing checks: unconsumed sections and
// trailing garbage both fail Close.
func TestDecoderClose(t *testing.T) {
	data := buildSample(NewEncoder(nil))
	d, _ := NewDecoder(data)
	if _, err := d.Section("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err == nil || !strings.Contains(err.Error(), "sections consumed") {
		t.Fatalf("early Close error = %v", err)
	}

	// A file whose header declares fewer sections than the body holds:
	// re-seal with a valid CRC so only Close's trailing-bytes check can
	// catch it.
	enc := NewEncoder(nil)
	enc.Begin("only")
	enc.Uint8(1)
	enc.End()
	sealed := enc.Finish()
	body := append([]byte(nil), sealed[:len(sealed)-4]...)
	binary.LittleEndian.PutUint32(body[len(magic)+4:], 0) // declare zero sections
	body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
	d, err := NewDecoder(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err == nil || !strings.Contains(err.Error(), "trailing garbage") {
		t.Fatalf("trailing-garbage Close error = %v", err)
	}
}

// TestEncoderMisusePanics pins that API misuse (not input corruption)
// panics loudly.
func TestEncoderMisusePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("nested Begin", func() {
		enc := NewEncoder(nil)
		enc.Begin("a")
		enc.Begin("b")
	})
	mustPanic("End without Begin", func() { NewEncoder(nil).End() })
	mustPanic("Finish inside section", func() {
		enc := NewEncoder(nil)
		enc.Begin("a")
		enc.Finish()
	})
	mustPanic("Begin after Finish", func() {
		enc := NewEncoder(nil)
		enc.Finish()
		enc.Begin("a")
	})
	mustPanic("empty section name", func() { NewEncoder(nil).Begin("") })
}

// TestVersionRejected pins the format-revision gate.
func TestVersionRejected(t *testing.T) {
	data := append([]byte(nil), buildSample(NewEncoder(nil))...)
	data[len(magic)] = 99 // version field
	if _, err := NewDecoder(data); err == nil {
		t.Fatal("future format version passed NewDecoder")
	}
}

// TestWriteFileAtomic pins the durable-write helper: the final file
// holds exactly the bytes, replaces an existing file, and leaves no
// temporary droppings behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.snap")
	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("file holds %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after atomic writes, want 1", len(entries))
	}
}
