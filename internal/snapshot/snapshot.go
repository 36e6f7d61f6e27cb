// Package snapshot is the checkpoint container format of the dynamic
// engine: a versioned, sectioned, checksummed binary layout with an
// allocation-conscious encoder and a hardened decoder.
//
// A snapshot file is
//
//	magic "LBSNAP\r\n" (8 bytes)       — the \r\n catches text-mode mangling
//	version uint32                      — format revision, currently 2
//	section count uint32
//	section*:
//	    name length uint8, name bytes   — short ASCII identifier
//	    payload length uint32
//	    payload bytes
//	    payload CRC32-Castagnoli uint32
//	file CRC32-Castagnoli uint32        — over everything before it
//
// All integers are little-endian. Floats travel as IEEE-754 bit
// patterns (math.Float64bits), never as decimal text, because the
// engine's headline invariant — a resumed run finishes byte-identical
// to the uninterrupted one — requires every incrementally-accumulated
// float to round-trip exactly.
//
// The decoder is paranoid by construction: the file checksum is
// verified before any section is parsed, every section payload carries
// its own CRC, sections must be consumed in the exact order the
// restorer asks for them (a reordered file is a structured error, not
// a silently misassembled state), and every primitive read is
// bounds-checked. Corruption never panics and never loads silently; it
// surfaces as an *Error naming the section and byte offset.
//
// The encoder reuses one growing buffer across Reset cycles, so an
// engine checkpointing on a cadence allocates only until the buffer
// reaches its high-water mark — steady-state rounds stay at zero
// allocations even with checkpointing enabled.
//
// A Codec runs one walk in either direction over these primitives, so
// a type saves and restores its state with a single method.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Version is the current snapshot format revision. Decoders reject
// files written by a different revision. Revision 2 added each delay
// wheel record's source and send round.
const Version = 2

const (
	magic      = "LBSNAP\r\n"
	headerSize = len(magic) + 4 + 4 // magic + version + section count
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Error is a structured decode failure: the section being parsed (""
// for file-level framing), the byte offset the problem was detected
// at, and what went wrong.
type Error struct {
	Section string // section name, "" for file-level framing errors
	Offset  int    // byte offset into the file (or section payload)
	Msg     string
}

func (e *Error) Error() string {
	if e.Section == "" {
		return fmt.Sprintf("snapshot: offset %d: %s", e.Offset, e.Msg)
	}
	return fmt.Sprintf("snapshot: section %q offset %d: %s", e.Section, e.Offset, e.Msg)
}

// Encoder builds a snapshot into one reusable buffer. The zero value
// is not ready; call NewEncoder (or Reset) first. Usage:
//
//	enc.Reset()
//	enc.Begin("meta"); enc.Uint64(...); enc.End()
//	...
//	data := enc.Finish()
//
// Begin/End pairs may not nest; misuse panics (it is a programming
// error, not an input error).
type Encoder struct {
	buf          []byte
	payloadStart int // index where the open section's payload begins
	lenAt        int // index of the open section's length field
	sections     int
	inSection    bool
	finished     bool
}

// NewEncoder returns an encoder ready for Begin that builds its
// snapshots in buf's backing array (nil for none).
func NewEncoder(buf []byte) *Encoder {
	e := &Encoder{buf: buf}
	e.Reset()
	return e
}

// Reset discards any partial or finished snapshot and starts a new
// one, reusing the internal buffer.
func (e *Encoder) Reset() {
	e.buf = append(e.buf[:0], magic...)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, Version)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, 0) // section count, patched in Finish
	e.sections = 0
	e.inSection = false
	e.finished = false
}

// Begin opens a named section. Names must be 1..255 bytes.
func (e *Encoder) Begin(name string) {
	switch {
	case e.finished:
		panic("snapshot: Begin after Finish (Reset first)")
	case e.inSection:
		panic("snapshot: Begin inside an open section")
	case len(name) == 0 || len(name) > 255:
		panic("snapshot: section name must be 1..255 bytes")
	}
	e.inSection = true
	e.buf = append(e.buf, byte(len(name)))
	e.buf = append(e.buf, name...)
	e.lenAt = len(e.buf)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, 0) // payload length, patched in End
	e.payloadStart = len(e.buf)
}

// End closes the open section, patching its length and appending the
// payload checksum.
func (e *Encoder) End() {
	if !e.inSection {
		panic("snapshot: End without Begin")
	}
	payload := e.buf[e.payloadStart:]
	if len(payload) > math.MaxUint32 {
		panic("snapshot: section payload exceeds 4 GiB")
	}
	binary.LittleEndian.PutUint32(e.buf[e.lenAt:], uint32(len(payload)))
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.Checksum(payload, castagnoli))
	e.sections++
	e.inSection = false
}

// Finish patches the section count, appends the file checksum and
// returns the complete snapshot. The returned slice aliases the
// encoder's internal buffer — it is valid until the next Reset.
func (e *Encoder) Finish() []byte {
	if e.inSection {
		panic("snapshot: Finish inside an open section")
	}
	if !e.finished {
		binary.LittleEndian.PutUint32(e.buf[len(magic)+4:], uint32(e.sections))
		e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.Checksum(e.buf, castagnoli))
		e.finished = true
	}
	return e.buf
}

// Uint8 appends one byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Uint32 appends a little-endian uint32.
func (e *Encoder) Uint32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// Uint64 appends a little-endian uint64.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Int, Int64 and Int32 spell their append out rather than call Uint64
// or Uint32, which keeps the Codec primitives that call them within
// the inlining budget.

// Int appends an int as its two's-complement 64-bit pattern.
func (e *Encoder) Int(v int) { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }

// Int64 appends an int64 as its two's-complement pattern.
func (e *Encoder) Int64(v int64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }

// Int32 appends an int32 as its two's-complement 32-bit pattern.
func (e *Encoder) Int32(v int32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(v)) }

// Float64 appends the exact IEEE-754 bit pattern of v.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Ints appends a length-prefixed []int.
func (e *Encoder) Ints(s []int) {
	e.Uint32(uint32(len(s)))
	for _, v := range s {
		e.Int(v)
	}
}

// Int32s appends a length-prefixed []int32.
func (e *Encoder) Int32s(s []int32) {
	e.Uint32(uint32(len(s)))
	for _, v := range s {
		e.Int32(v)
	}
}

// Uint64s appends a length-prefixed []uint64.
func (e *Encoder) Uint64s(s []uint64) {
	e.Uint32(uint32(len(s)))
	for _, v := range s {
		e.Uint64(v)
	}
}

// Float64s appends a length-prefixed []float64, bit patterns only.
func (e *Encoder) Float64s(s []float64) {
	e.Uint32(uint32(len(s)))
	for _, v := range s {
		e.Float64(v)
	}
}

// Bools appends a length-prefixed []bool.
func (e *Encoder) Bools(s []bool) {
	e.Uint32(uint32(len(s)))
	for _, v := range s {
		e.Bool(v)
	}
}

// Decoder parses a snapshot produced by Encoder. Construction
// verifies the framing and the file checksum; Section then yields the
// sections strictly in file order.
type Decoder struct {
	data []byte
	off  int
	nsec int // declared section count
	read int // sections handed out so far
}

// NewDecoder validates the header, the trailer checksum and the
// declared section count of data. It never panics on malformed input.
func NewDecoder(data []byte) (*Decoder, error) {
	if len(data) < headerSize+4 {
		return nil, &Error{Offset: len(data), Msg: fmt.Sprintf("file truncated: %d bytes, need at least %d", len(data), headerSize+4)}
	}
	if string(data[:len(magic)]) != magic {
		return nil, &Error{Offset: 0, Msg: "bad magic (not a snapshot file)"}
	}
	ver := binary.LittleEndian.Uint32(data[len(magic):])
	if ver != Version {
		return nil, &Error{Offset: len(magic), Msg: fmt.Sprintf("unsupported format version %d (want %d)", ver, Version)}
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, &Error{Offset: len(body), Msg: fmt.Sprintf("file checksum mismatch: computed %08x, stored %08x", got, want)}
	}
	d := &Decoder{data: body, off: headerSize}
	d.nsec = int(binary.LittleEndian.Uint32(data[len(magic)+4:]))
	return d, nil
}

// Section parses the next section and verifies it is the one the
// caller expects — a reordered or mislabelled file fails here with a
// structured error instead of restoring the wrong state.
func (d *Decoder) Section(name string) (*Section, error) {
	payload, err := d.next(name)
	if err != nil {
		return nil, err
	}
	return &Section{name: name, data: payload}, nil
}

// next parses the next section, checks its name and checksum, and
// returns its payload.
func (d *Decoder) next(name string) ([]byte, error) {
	if d.read == d.nsec {
		return nil, &Error{Section: name, Offset: d.off, Msg: fmt.Sprintf("expected section %q but all %d sections are consumed", name, d.nsec)}
	}
	if d.off >= len(d.data) {
		return nil, &Error{Section: name, Offset: d.off, Msg: "file truncated before section header"}
	}
	nameLen := int(d.data[d.off])
	hdr := d.off + 1
	if nameLen == 0 || hdr+nameLen+4 > len(d.data) {
		return nil, &Error{Section: name, Offset: d.off, Msg: "file truncated inside section header"}
	}
	got := string(d.data[hdr : hdr+nameLen])
	plen := int(binary.LittleEndian.Uint32(d.data[hdr+nameLen:]))
	payloadAt := hdr + nameLen + 4
	if payloadAt+plen+4 > len(d.data) {
		return nil, &Error{Section: got, Offset: d.off, Msg: fmt.Sprintf("file truncated inside section payload (%d bytes declared, %d available)", plen, len(d.data)-payloadAt-4)}
	}
	payload := d.data[payloadAt : payloadAt+plen]
	crc := binary.LittleEndian.Uint32(d.data[payloadAt+plen:])
	if got != name {
		return nil, &Error{Section: got, Offset: d.off, Msg: fmt.Sprintf("section order violation: expected %q, found %q", name, got)}
	}
	if sum := crc32.Checksum(payload, castagnoli); sum != crc {
		return nil, &Error{Section: got, Offset: payloadAt, Msg: fmt.Sprintf("section checksum mismatch: computed %08x, stored %08x", sum, crc)}
	}
	d.off = payloadAt + plen + 4
	d.read++
	return payload, nil
}

// Close verifies every declared section was consumed and nothing
// trails the last one.
func (d *Decoder) Close() error {
	if d.read != d.nsec {
		return &Error{Offset: d.off, Msg: fmt.Sprintf("%d of %d sections consumed at close", d.read, d.nsec)}
	}
	if d.off != len(d.data) {
		return &Error{Offset: d.off, Msg: fmt.Sprintf("%d bytes of trailing garbage after the last section", len(d.data)-d.off)}
	}
	return nil
}

// Section is a cursor over one verified section payload. Reads past
// the end latch an error and return zero values; check Done (or Err)
// once after the reads.
type Section struct {
	name string
	data []byte
	off  int
	err  error
}

// Err returns the first read error, if any.
func (s *Section) Err() error { return s.err }

// Done returns the first read error, or an error if the payload was
// not fully consumed (a length drift between writer and reader).
func (s *Section) Done() error {
	if s.err != nil {
		return s.err
	}
	if s.off != len(s.data) {
		return &Error{Section: s.name, Offset: s.off, Msg: fmt.Sprintf("%d bytes left unread in section", len(s.data)-s.off)}
	}
	return nil
}

func (s *Section) fail(format string, a ...any) {
	if s.err == nil {
		s.err = &Error{Section: s.name, Offset: s.off, Msg: fmt.Sprintf(format, a...)}
	}
}

func (s *Section) take(n int) []byte {
	if s.err != nil {
		return nil
	}
	if s.off+n > len(s.data) {
		s.fail("section truncated: need %d bytes, %d left", n, len(s.data)-s.off)
		return nil
	}
	b := s.data[s.off : s.off+n]
	s.off += n
	return b
}

// Uint8 reads one byte.
func (s *Section) Uint8() uint8 {
	b := s.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a bool; any value other than 0 or 1 is a
// decode error (corruption shows up instead of folding to true).
func (s *Section) Bool() bool {
	b := s.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		s.fail("bad bool byte %#x", b[0])
		return false
	}
	return b[0] == 1
}

// Uint32 reads a little-endian uint32.
func (s *Section) Uint32() uint32 {
	b := s.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Uint64 reads a little-endian uint64.
func (s *Section) Uint64() uint64 {
	b := s.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads a two's-complement 64-bit int.
func (s *Section) Int() int { return int(int64(s.Uint64())) }

// Int64 reads a two's-complement 64-bit int.
func (s *Section) Int64() int64 { return int64(s.Uint64()) }

// Int32 reads a two's-complement 32-bit int.
func (s *Section) Int32() int32 { return int32(s.Uint32()) }

// Float64 reads an IEEE-754 bit pattern.
func (s *Section) Float64() float64 { return math.Float64frombits(s.Uint64()) }

// count reads a length prefix and bounds it against the bytes
// actually remaining (elemSize bytes per element), so a corrupted
// length cannot drive a giant allocation.
func (s *Section) count(elemSize int) int {
	n := int(s.Uint32())
	if s.err != nil {
		return 0
	}
	if n*elemSize > len(s.data)-s.off {
		s.fail("declared length %d exceeds remaining payload (%d bytes)", n, len(s.data)-s.off)
		return 0
	}
	return n
}

// The slice readers below refill dst[:0], growing it at most once, to
// the recorded length.

// Ints reads a length-prefixed []int into dst[:0].
func (s *Section) Ints(dst []int) []int {
	n := s.count(8)
	dst = slices.Grow(dst[:0], n)
	for i := 0; i < n && s.err == nil; i++ {
		dst = append(dst, s.Int())
	}
	return dst
}

// Int32s reads a length-prefixed []int32 into dst[:0].
func (s *Section) Int32s(dst []int32) []int32 {
	n := s.count(4)
	dst = slices.Grow(dst[:0], n)
	for i := 0; i < n && s.err == nil; i++ {
		dst = append(dst, s.Int32())
	}
	return dst
}

// Uint64s reads a length-prefixed []uint64 into dst[:0].
func (s *Section) Uint64s(dst []uint64) []uint64 {
	n := s.count(8)
	dst = slices.Grow(dst[:0], n)
	for i := 0; i < n && s.err == nil; i++ {
		dst = append(dst, s.Uint64())
	}
	return dst
}

// Float64s reads a length-prefixed []float64 into dst[:0].
func (s *Section) Float64s(dst []float64) []float64 {
	n := s.count(8)
	dst = slices.Grow(dst[:0], n)
	for i := 0; i < n && s.err == nil; i++ {
		dst = append(dst, s.Float64())
	}
	return dst
}

// Bools reads a length-prefixed []bool into dst[:0].
func (s *Section) Bools(dst []bool) []bool {
	n := s.count(1)
	dst = slices.Grow(dst[:0], n)
	for i := 0; i < n && s.err == nil; i++ {
		dst = append(dst, s.Bool())
	}
	return dst
}
