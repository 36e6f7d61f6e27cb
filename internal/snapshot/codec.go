package snapshot

import (
	"encoding/binary"
	"math"
)

// Codec walks a snapshot in either direction with one sequence of
// calls. A writing codec appends the value each pointer holds through
// an Encoder; a reading codec stores the next value of the open
// Section through the same pointer. A type saves and restores its
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
	enc     *Encoder // nil when reading
	dec     *Decoder // nil when writing
	sec     Section  // the open section when reading; sec.err latches the first failure either way
}

// NewWriter returns a writing codec whose encoder builds its snapshots
// in buf's backing array (nil for none). Reuse it: Reset keeps the
// buffer, so a cadence of snapshots allocates only until the buffer
// reaches its high-water mark, and encoding into a buf at least as
// large as the snapshot allocates nothing.
func NewWriter(buf []byte) *Codec {
	return &Codec{enc: NewEncoder(buf)}
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
	c.enc.Reset()
	c.sec.err = nil
}

// Remaining reports how many bytes of the open section a reading codec
// has yet to read: an upper bound a walk can size one buffer from
// before it reads the elements. It is 0 after a failure and on a
// writing codec.
func (c *Codec) Remaining() int {
	if c.dec == nil || c.sec.err != nil {
		return 0
	}
	return len(c.sec.data) - c.sec.off
}

// Err returns the first failure of the walk, nil if none.
func (c *Codec) Err() error { return c.sec.err }

// Fail latches err as the walk's failure unless err is nil or an
// earlier failure is already latched.
func (c *Codec) Fail(err error) {
	if c.sec.err == nil {
		c.sec.err = err
	}
}

// Begin opens the named section: writing, it starts the section;
// reading, it parses the next one and checks that it carries this
// name, so a reordered file fails instead of restoring the wrong
// state.
func (c *Codec) Begin(name string) {
	if c.dec == nil {
		c.enc.Begin(name)
		return
	}
	if c.sec.err != nil {
		return
	}
	payload, err := c.dec.next(name)
	c.sec = Section{name: name, data: payload, err: err}
}

// End closes the open section: writing, it seals its length and
// checksum; reading, it checks that the walk consumed the whole
// payload (a length drift between writer and reader).
func (c *Codec) End() {
	if c.dec == nil {
		c.enc.End()
		return
	}
	c.sec.err = c.sec.Done()
}

// Close ends the walk and returns its first failure. Writing, it seals
// the file, which Bytes then returns; reading, it checks that every
// section was consumed and nothing trails the last one.
func (c *Codec) Close() error {
	if c.dec == nil {
		c.enc.Finish()
	} else if c.sec.err == nil {
		c.sec.err = c.dec.Close()
	}
	return c.sec.err
}

// Bytes returns a writing codec's sealed file. It aliases the
// encoder's buffer and is valid until the next Reset.
func (c *Codec) Bytes() []byte { return c.enc.Finish() }

// The fixed-width primitives and Len keep their read half to one call
// of an out-of-line reader, so that all but Bool fit the compiler's
// inlining budget: their write half, all a checkpoint cadence runs,
// inlines into the walk as the encoder's bare append.

// Uint8 walks one byte.
func (c *Codec) Uint8(v *uint8) {
	if c.reading {
		c.readUint8(v)
	} else {
		c.enc.Uint8(*v)
	}
}

// Bool walks a bool as one byte; reading, any byte other than 0 or 1
// is a failure.
func (c *Codec) Bool(v *bool) {
	if c.reading {
		c.readBool(v)
	} else {
		c.enc.Bool(*v)
	}
}

// Uint64 walks a little-endian uint64.
func (c *Codec) Uint64(v *uint64) {
	if c.reading {
		c.readUint64(v)
	} else {
		c.enc.Uint64(*v)
	}
}

// Int walks an int as its two's-complement 64-bit pattern.
func (c *Codec) Int(v *int) {
	if c.reading {
		c.readInt(v)
	} else {
		c.enc.Int(*v)
	}
}

// Int32 walks an int32 as its two's-complement 32-bit pattern.
func (c *Codec) Int32(v *int32) {
	if c.reading {
		c.readInt32(v)
	} else {
		c.enc.Int32(*v)
	}
}

// Int64 walks an int64 as its two's-complement pattern.
func (c *Codec) Int64(v *int64) {
	if c.reading {
		c.readInt64(v)
	} else {
		c.enc.Int64(*v)
	}
}

// Float64 walks the exact IEEE-754 bit pattern of a float64.
func (c *Codec) Float64(v *float64) {
	if c.reading {
		c.readFloat64(v)
	} else {
		// Encoder.Float64's append, spelled out: through the call the
		// method misses the inlining budget.
		c.enc.buf = binary.LittleEndian.AppendUint64(c.enc.buf, math.Float64bits(*v))
	}
}

// Len walks a length prefix. Reading, the length is bounded by the
// bytes left in the section at elemSize bytes per element, so a
// corrupted length cannot drive a giant allocation.
func (c *Codec) Len(n *int, elemSize int) {
	if c.reading {
		c.readLen(n, elemSize)
	} else {
		c.enc.Uint32(uint32(*n))
	}
}

//go:noinline
func (c *Codec) readUint8(v *uint8) { *v = c.sec.Uint8() }

//go:noinline
func (c *Codec) readBool(v *bool) { *v = c.sec.Bool() }

//go:noinline
func (c *Codec) readUint64(v *uint64) { *v = c.sec.Uint64() }

//go:noinline
func (c *Codec) readInt(v *int) { *v = c.sec.Int() }

//go:noinline
func (c *Codec) readInt32(v *int32) { *v = c.sec.Int32() }

//go:noinline
func (c *Codec) readInt64(v *int64) { *v = c.sec.Int64() }

//go:noinline
func (c *Codec) readFloat64(v *float64) { *v = c.sec.Float64() }

//go:noinline
func (c *Codec) readLen(n *int, elemSize int) { *n = c.sec.count(elemSize) }

// The slice walkers below write a length prefix and the elements;
// reading, they refill *s in place, reusing its backing array.

// Ints walks a length-prefixed []int.
func (c *Codec) Ints(s *[]int) {
	if c.dec == nil {
		c.enc.Ints(*s)
		return
	}
	*s = c.sec.Ints(*s)
}

// Int32s walks a length-prefixed []int32.
func (c *Codec) Int32s(s *[]int32) {
	if c.dec == nil {
		c.enc.Int32s(*s)
		return
	}
	*s = c.sec.Int32s(*s)
}

// Uint64s walks a length-prefixed []uint64.
func (c *Codec) Uint64s(s *[]uint64) {
	if c.dec == nil {
		c.enc.Uint64s(*s)
		return
	}
	*s = c.sec.Uint64s(*s)
}

// Float64s walks a length-prefixed []float64, bit patterns only.
func (c *Codec) Float64s(s *[]float64) {
	if c.dec == nil {
		c.enc.Float64s(*s)
		return
	}
	*s = c.sec.Float64s(*s)
}

// Bools walks a length-prefixed []bool.
func (c *Codec) Bools(s *[]bool) {
	if c.dec == nil {
		c.enc.Bools(*s)
		return
	}
	*s = c.sec.Bools(*s)
}

// Resize sets a reading codec's *s to n zeroed elements, reusing its
// backing array, for a walk that then fills each element in place. n
// comes from Len, which bounds it.
func Resize[T any](c *Codec, s *[]T, n int) {
	if c.dec != nil {
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
