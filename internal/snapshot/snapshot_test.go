package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleFile is the codec-written file of fullSample that the
// corruption suites below cut, flip and misread.
func sampleFile() []byte {
	v := fullSample()
	w := NewWriter(nil)
	v.walk(w)
	if err := w.Close(); err != nil {
		panic(err)
	}
	return w.Bytes()
}

// readAll runs the sample's reading walk over data and returns its
// first failure, recovering a panic as a test failure.
func readAll(t *testing.T, data []byte) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("reading %d bytes panicked: %v", len(data), r)
		}
	}()
	c, err := NewReader(data)
	if err != nil {
		return err
	}
	var v codecSample
	v.walk(c)
	return c.Close()
}

// reseal replaces data's file checksum with the one its body has, so
// that only the checks behind the file checksum can catch a change.
func reseal(data []byte) []byte {
	body := data[:len(data)-4]
	sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint32(body, sum)
}

// TestTruncationMatrix cuts the file at EVERY length shorter than the
// original: each prefix must fail — at construction or while reading —
// and never panic or decode cleanly.
func TestTruncationMatrix(t *testing.T) {
	data := sampleFile()
	for cut := 0; cut < len(data); cut++ {
		if _, err := NewDecoder(data[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes passed NewDecoder (file checksum should fail)", cut, len(data))
		}
		if err := readAll(t, data[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes read cleanly", cut, len(data))
		}
	}
}

// TestBitFlipMatrix flips one bit at every byte offset: the file-level
// checksum must reject every mutation before any state is parsed. With
// the file checksum resealed over the flip, the checks behind it (the
// version, the section headers and checksums, and the section count)
// must still reject every flip outside the file checksum itself.
func TestBitFlipMatrix(t *testing.T) {
	data := sampleFile()
	mut := make([]byte, len(data))
	for off := 0; off < len(data); off++ {
		copy(mut, data)
		mut[off] ^= 0x04
		if _, err := NewDecoder(mut); err == nil {
			t.Fatalf("bit flip at offset %d passed NewDecoder", off)
		}
		if off >= len(data)-4 {
			continue
		}
		if err := readAll(t, reseal(mut)); err == nil {
			t.Fatalf("bit flip at offset %d under a resealed file checksum read cleanly", off)
		}
	}
}

// TestSectionOrderViolation pins that reading sections out of order is
// a structured error naming both sections, not a misassembled restore.
func TestSectionOrderViolation(t *testing.T) {
	c, err := NewReader(sampleFile())
	if err != nil {
		t.Fatal(err)
	}
	c.Begin("beta")
	var se *Error
	if !errors.As(c.Err(), &se) {
		t.Fatalf("out-of-order Begin: error %T (%v) is not *snapshot.Error", c.Err(), c.Err())
	}
	if se.Section != "alpha" || se.Offset != headerSize ||
		!strings.Contains(se.Msg, `order violation: expected "beta", found "alpha"`) {
		t.Fatalf("unexpected structured error: %+v", se)
	}
}

// TestStructuredReadErrors drives the reading codec's failure modes:
// reads past the payload end, bad bool bytes (alone and inside Bools),
// giant declared lengths and unconsumed bytes must each latch an
// *Error carrying the section name and the offset into its payload.
func TestStructuredReadErrors(t *testing.T) {
	file := func(walk func(c *Codec)) []byte {
		w := NewWriter(nil)
		w.Begin("s")
		walk(w)
		w.End()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	read := func(data []byte, walk func(c *Codec)) error {
		c, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		c.Begin("s")
		walk(c)
		c.End()
		return c.Err()
	}
	check := func(what string, err error, offset int, msg string) {
		t.Helper()
		var se *Error
		if !errors.As(err, &se) || se.Section != "s" || se.Offset != offset || !strings.Contains(se.Msg, msg) {
			t.Fatalf("%s: error %v, want section \"s\" offset %d %q", what, err, offset, msg)
		}
	}

	i32 := int32(7)
	short := file(func(c *Codec) { c.Int32(&i32) })
	u64 := uint64(1)
	err := read(short, func(c *Codec) {
		c.Uint64(&u64) // 8 bytes from a 4-byte payload
		if u64 != 0 {
			t.Fatalf("overread stored %d, want 0", u64)
		}
		u64 = 1
		c.Uint64(&u64)
		if u64 != 0 {
			t.Fatalf("read after latched error stored %d, want 0", u64)
		}
	})
	check("overread", err, 0, "section truncated: need 8 bytes, 4 left")

	two, giant := uint8(2), int32(-1) // not a bool byte; a length of 2^32-1
	bad := file(func(c *Codec) {
		c.Uint8(&two)
		c.Int32(&giant)
	})
	var b bool
	check("bad bool", read(bad, func(c *Codec) { c.Bool(&b) }), 1, "bad bool byte 0x2")

	var u8 uint8
	var fs []float64
	err = read(bad, func(c *Codec) {
		c.Uint8(&u8)
		c.Float64s(&fs) // declared length 2^32-1 with no bytes behind it
	})
	check("giant length", err, 5, "declared length 4294967295 exceeds remaining payload (0 bytes)")

	check("unread bytes", read(bad, func(c *Codec) { c.Uint8(&u8) }), 1, "4 bytes left unread in section")

	n, one, zero := 3, uint8(1), uint8(0)
	badBools := file(func(c *Codec) {
		c.Len(&n, 1)
		c.Uint8(&one)
		c.Uint8(&two)
		c.Uint8(&zero)
	})
	var bs []bool
	check("bad byte in Bools", read(badBools, func(c *Codec) { c.Bools(&bs) }), 6, "bad bool byte 0x2")
}

// TestDecoderClose pins the trailing checks: unconsumed sections and
// trailing garbage both fail Close.
func TestDecoderClose(t *testing.T) {
	data := sampleFile()
	c, _ := NewReader(data)
	var v codecSample
	c.Begin("alpha")
	c.Uint8(&v.u8)
	c.Bool(&v.b)
	c.Uint64(&v.u64)
	c.Int(&v.i)
	c.Int32(&v.i32)
	c.Int64(&v.i64)
	c.Float64(&v.f)
	c.End()
	if err := c.Close(); err == nil || !strings.Contains(err.Error(), "1 of 3 sections consumed at close") {
		t.Fatalf("early Close error = %v", err)
	}

	// A file whose header declares fewer sections than the body holds:
	// resealed with a valid checksum so only Close's trailing-bytes
	// check can catch it.
	w := NewWriter(nil)
	w.Begin("only")
	one := uint8(1)
	w.Uint8(&one)
	w.End()
	_ = w.Close()
	mut := append([]byte(nil), w.Bytes()...)
	binary.LittleEndian.PutUint32(mut[len(magic)+4:], 0) // declare zero sections
	c, err := NewReader(reseal(mut))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err == nil || !strings.Contains(err.Error(), "trailing garbage") {
		t.Fatalf("trailing-garbage Close error = %v", err)
	}
}

// TestWriterMisusePanics pins that API misuse (not input corruption)
// panics loudly.
func TestWriterMisusePanics(t *testing.T) {
	mustPanic := func(name string, fn func(w *Codec)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn(NewWriter(nil))
	}
	mustPanic("nested Begin", func(w *Codec) {
		w.Begin("a")
		w.Begin("b")
	})
	mustPanic("End without Begin", func(w *Codec) { w.End() })
	mustPanic("Close inside section", func(w *Codec) {
		w.Begin("a")
		w.Close()
	})
	mustPanic("Bytes inside section", func(w *Codec) {
		w.Begin("a")
		w.Bytes()
	})
	mustPanic("Begin after Close", func(w *Codec) {
		w.Close()
		w.Begin("a")
	})
	mustPanic("empty section name", func(w *Codec) { w.Begin("") })
	mustPanic("256-byte section name", func(w *Codec) { w.Begin(strings.Repeat("x", 256)) })
}

// TestVersionRejected pins the format-revision gate.
func TestVersionRejected(t *testing.T) {
	data := append([]byte(nil), sampleFile()...)
	data[len(magic)] = 99 // version field
	for _, err := range []error{readAll(t, data), readAll(t, reseal(data))} {
		if err == nil || !strings.Contains(err.Error(), "unsupported format version 99") {
			t.Fatalf("future format version: error %v", err)
		}
	}
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
