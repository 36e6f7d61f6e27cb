package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Codec walks a snapshot in either direction with one sequence of
// calls. A writing codec appends the value each pointer holds to the
// file it builds; a reading codec stores the next value of the open
// section through the same pointer. A type saves and restores its
// state with one method that names every persistent field once, in
// the order both directions share, so the two directions cannot drift
// apart.
//
// The first failure latches: a framing or read error, or one the walk
// reports through Fail. After it every read yields zero values and
// every Begin and End does nothing, so a walk runs to its end and
// checks Err (or Close) once. Code that derives state from what it
// read, or indexes by it, must check Err first.
type Codec struct {
	reading bool
	// buf is the file built so far when writing, and the open
	// section's payload when reading, of which off bytes are read. A
	// reading failure empties it, so that every later read fails its
	// bounds check and yields zero.
	buf []byte
	off int
	err error

	dec  *Decoder // reading: the file's framing
	name string   // reading: the open section's name

	lenAt    int  // writing: the open section's length field, 0 when none is open
	sections int  // writing: sections sealed so far
	sealed   bool // writing: Close has appended the file checksum
}

// NewWriter returns a writing codec that builds its snapshots in buf's
// backing array (nil for none). Reuse it: Reset keeps the buffer, so a
// cadence of snapshots allocates only until the buffer reaches its
// high-water mark, and encoding into a buf at least as large as the
// snapshot allocates nothing.
func NewWriter(buf []byte) *Codec {
	c := &Codec{buf: buf}
	c.Reset()
	return c
}

// NewReader returns a reading codec over data once NewDecoder has
// verified its framing and file checksum. Every value the walk reads
// is copied out of data, so once the walk is done the caller may
// reuse data, for instance as a writer's buffer.
func NewReader(data []byte) (*Codec, error) {
	d, err := NewDecoder(data)
	if err != nil {
		return nil, err
	}
	return &Codec{reading: true, dec: d}, nil
}

// Reading reports whether the codec restores (true) or saves (false).
func (c *Codec) Reading() bool { return c.reading }

// Reset starts a new snapshot on a writing codec, reusing its buffer.
func (c *Codec) Reset() {
	c.buf = append(c.buf[:0], magic...)
	c.buf = binary.LittleEndian.AppendUint32(c.buf, Version)
	c.buf = binary.LittleEndian.AppendUint32(c.buf, 0) // section count, patched by Close
	c.err, c.lenAt, c.sections, c.sealed = nil, 0, 0, false
}

// Remaining reports how many bytes of the open section a reading codec
// has yet to read: an upper bound a walk can size one buffer from
// before it reads the elements. It is 0 after a failure and on a
// writing codec.
func (c *Codec) Remaining() int {
	if !c.reading {
		return 0
	}
	return len(c.buf) - c.off
}

// Err returns the first failure of the walk, nil if none.
func (c *Codec) Err() error { return c.err }

// Fail latches err as the walk's failure unless err is nil or an
// earlier failure is already latched.
func (c *Codec) Fail(err error) {
	if c.err != nil || err == nil {
		return
	}
	c.err = err
	if c.reading {
		c.buf, c.off = nil, 0
	}
}

// fail latches a read failure at offset off of the open section.
func (c *Codec) fail(off int, format string, a ...any) {
	if c.err == nil {
		c.Fail(&Error{Section: c.name, Offset: off, Msg: fmt.Sprintf(format, a...)})
	}
}

// Begin opens the named section: writing, it starts the section;
// reading, it parses the next one and checks that it carries this
// name, so a reordered file fails instead of restoring the wrong
// state. Writing, a name outside 1..255 bytes, a section already open
// and a sealed file panic: they are programming errors, not input
// errors.
func (c *Codec) Begin(name string) {
	if c.reading {
		if c.err == nil {
			c.name, c.off = name, 0
			payload, err := c.dec.next(name)
			c.buf = payload
			c.Fail(err)
		}
		return
	}
	switch {
	case c.sealed:
		panic("snapshot: Begin after Close (Reset first)")
	case c.lenAt != 0:
		panic("snapshot: Begin inside an open section")
	case len(name) == 0 || len(name) > 255:
		panic("snapshot: section name must be 1..255 bytes")
	}
	c.buf = append(c.buf, byte(len(name)))
	c.buf = append(c.buf, name...)
	c.lenAt = len(c.buf)
	c.buf = binary.LittleEndian.AppendUint32(c.buf, 0) // payload length, patched by End
}

// End closes the open section: writing, it patches its length and
// appends its checksum; reading, it checks that the walk consumed the
// whole payload (a length drift between writer and reader).
func (c *Codec) End() {
	if c.reading {
		if left := len(c.buf) - c.off; left > 0 {
			c.fail(c.off, "%d bytes left unread in section", left)
		}
		return
	}
	if c.lenAt == 0 {
		panic("snapshot: End without Begin")
	}
	payload := c.buf[c.lenAt+4:]
	if len(payload) > math.MaxUint32 {
		panic("snapshot: section payload exceeds 4 GiB")
	}
	binary.LittleEndian.PutUint32(c.buf[c.lenAt:], uint32(len(payload)))
	c.buf = binary.LittleEndian.AppendUint32(c.buf, crc32.Checksum(payload, castagnoli))
	c.sections++
	c.lenAt = 0
}

// Close ends the walk and returns its first failure. Writing, it seals
// the file, which Bytes then returns; reading, it checks that every
// section was consumed and nothing trails the last one.
func (c *Codec) Close() error {
	if c.reading {
		if c.err == nil {
			c.Fail(c.dec.Close())
		}
		return c.err
	}
	if c.lenAt != 0 {
		panic("snapshot: Close inside an open section")
	}
	if !c.sealed {
		binary.LittleEndian.PutUint32(c.buf[len(magic)+4:], uint32(c.sections))
		c.buf = binary.LittleEndian.AppendUint32(c.buf, crc32.Checksum(c.buf, castagnoli))
		c.sealed = true
	}
	return c.err
}

// Bytes seals a writing codec's file and returns it. It aliases the
// codec's buffer and is valid until the next Reset.
func (c *Codec) Bytes() []byte {
	c.Close()
	return c.buf
}

// The fixed-width primitives and Len write with a bare append and read
// with one call of an out-of-line reader, so that all but Bool fit the
// compiler's inlining budget: their write half, all a checkpoint
// cadence runs, inlines into the walk.

// Uint8 walks one byte.
func (c *Codec) Uint8(v *uint8) {
	if c.reading {
		*v = c.get8()
	} else {
		c.buf = append(c.buf, *v)
	}
}

// Bool walks a bool as one byte; reading, any byte other than 0 or 1
// is a failure.
func (c *Codec) Bool(v *bool) {
	if c.reading {
		*v = c.getBool()
	} else {
		c.buf = append(c.buf, boolByte(*v))
	}
}

// Uint64 walks a little-endian uint64.
func (c *Codec) Uint64(v *uint64) {
	if c.reading {
		*v = c.get64()
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	}
}

// Int walks an int as its two's-complement 64-bit pattern.
func (c *Codec) Int(v *int) {
	if c.reading {
		*v = int(c.get64())
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	}
}

// Int32 walks an int32 as its two's-complement 32-bit pattern.
func (c *Codec) Int32(v *int32) {
	if c.reading {
		*v = int32(c.get32())
	} else {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
	}
}

// Int64 walks an int64 as its two's-complement pattern.
func (c *Codec) Int64(v *int64) {
	if c.reading {
		*v = int64(c.get64())
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	}
}

// Float64 walks the exact IEEE-754 bit pattern of a float64.
func (c *Codec) Float64(v *float64) {
	if c.reading {
		*v = c.getFloat64()
	} else {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
	}
}

// Len walks a length prefix. Reading, the length is bounded by the
// bytes left in the section at elemSize bytes per element, so a
// corrupted length cannot drive a giant allocation.
func (c *Codec) Len(n *int, elemSize int) {
	if c.reading {
		*n = c.count(elemSize)
	} else {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*n))
	}
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// The readers below return the next value of the open section, or
// latch a failure and return zero when too few bytes are left.

//go:noinline
func (c *Codec) get8() uint8 {
	b := c.buf[c.off:]
	if len(b) < 1 {
		c.short(1)
		return 0
	}
	c.off++
	return b[0]
}

//go:noinline
func (c *Codec) getBool() bool {
	b := c.get8()
	if b > 1 {
		c.fail(c.off, "bad bool byte %#x", b)
		return false
	}
	return b == 1
}

//go:noinline
func (c *Codec) get32() uint32 {
	b := c.buf[c.off:]
	if len(b) < 4 {
		c.short(4)
		return 0
	}
	c.off += 4
	return binary.LittleEndian.Uint32(b)
}

//go:noinline
func (c *Codec) get64() uint64 {
	b := c.buf[c.off:]
	if len(b) < 8 {
		c.short(8)
		return 0
	}
	c.off += 8
	return binary.LittleEndian.Uint64(b)
}

// getFloat64 is get64 for Float64, whose walker the conversion would
// push over the inlining budget.
//
//go:noinline
func (c *Codec) getFloat64() float64 {
	b := c.buf[c.off:]
	if len(b) < 8 {
		c.short(8)
		return 0
	}
	c.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// short latches a read of n bytes past the end of the open section.
func (c *Codec) short(n int) {
	c.fail(c.off, "section truncated: need %d bytes, %d left", n, len(c.buf)-c.off)
}

// count reads a length prefix and bounds it by the bytes left in the
// section at elemSize bytes per element.
//
//go:noinline
func (c *Codec) count(elemSize int) int {
	n := int(c.get32())
	if left := len(c.buf) - c.off; n*elemSize > left {
		c.fail(c.off, "declared length %d exceeds remaining payload (%d bytes)", n, left)
		return 0
	}
	return n
}

// elems reads a length prefix and takes the bytes of that many
// elements of elemSize bytes each, which count has bounded, in one
// piece.
func (c *Codec) elems(elemSize int) []byte {
	n := c.count(elemSize) * elemSize
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// The slice walkers below write a length prefix and the elements,
// appending to a local copy of the buffer that the compiler keeps in
// registers; reading, they refill *s in place, reusing its backing
// array and growing it at most once, to the recorded length.

// Ints walks a length-prefixed []int.
func (c *Codec) Ints(s *[]int) {
	if !c.reading {
		b := binary.LittleEndian.AppendUint32(c.buf, uint32(len(*s)))
		for _, v := range *s {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		c.buf = b
		return
	}
	b := c.elems(8)
	dst := slices.Grow((*s)[:0], len(b)/8)[:len(b)/8]
	for i := range dst {
		dst[i] = int(binary.LittleEndian.Uint64(b[8*i:]))
	}
	*s = dst
}

// Int32s walks a length-prefixed []int32.
func (c *Codec) Int32s(s *[]int32) {
	if !c.reading {
		b := binary.LittleEndian.AppendUint32(c.buf, uint32(len(*s)))
		for _, v := range *s {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		c.buf = b
		return
	}
	b := c.elems(4)
	dst := slices.Grow((*s)[:0], len(b)/4)[:len(b)/4]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	*s = dst
}

// Uint64s walks a length-prefixed []uint64.
func (c *Codec) Uint64s(s *[]uint64) {
	if !c.reading {
		b := binary.LittleEndian.AppendUint32(c.buf, uint32(len(*s)))
		for _, v := range *s {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		c.buf = b
		return
	}
	b := c.elems(8)
	dst := slices.Grow((*s)[:0], len(b)/8)[:len(b)/8]
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	*s = dst
}

// Float64s walks a length-prefixed []float64, bit patterns only.
func (c *Codec) Float64s(s *[]float64) {
	if !c.reading {
		b := binary.LittleEndian.AppendUint32(c.buf, uint32(len(*s)))
		for _, v := range *s {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		c.buf = b
		return
	}
	b := c.elems(8)
	dst := slices.Grow((*s)[:0], len(b)/8)[:len(b)/8]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	*s = dst
}

// Bools walks a length-prefixed []bool; reading, any byte other than 0
// or 1 is a failure.
func (c *Codec) Bools(s *[]bool) {
	if !c.reading {
		b := binary.LittleEndian.AppendUint32(c.buf, uint32(len(*s)))
		for _, v := range *s {
			b = append(b, boolByte(v))
		}
		c.buf = b
		return
	}
	b := c.elems(1)
	dst := slices.Grow((*s)[:0], len(b))[:len(b)]
	for i, x := range b {
		if x > 1 {
			c.fail(c.off-len(b)+i+1, "bad bool byte %#x", x)
			dst = dst[:i]
			break
		}
		dst[i] = x == 1
	}
	*s = dst
}

// Resize sets a reading codec's *s to n zeroed elements, reusing its
// backing array, for a walk that then fills each element in place. n
// comes from Len, which bounds it.
func Resize[T any](c *Codec, s *[]T, n int) {
	if c.reading {
		*s = append((*s)[:0], make([]T, n)...)
	}
}

// Slice walks a length-prefixed slice whose elements take at least
// elemSize bytes each, calling elem on every element in order.
// Reading, *s is first resized to the recorded length.
func Slice[T any](c *Codec, s *[]T, elemSize int, elem func(*T)) {
	n := len(*s)
	c.Len(&n, elemSize)
	Resize(c, s, n)
	for i := range *s {
		elem(&(*s)[i])
	}
}
