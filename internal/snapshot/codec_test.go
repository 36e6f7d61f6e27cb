package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// codecSample holds one value of every kind a Codec walks.
type codecSample struct {
	u8     uint8
	b      bool
	u64    uint64
	i      int
	i32    int32
	i64    int64
	f      float64
	n      int
	ints   []int
	i32s   []int32
	u64s   []uint64
	fs     []float64
	bs     []bool
	pairs  []codecPair
	filled []codecPair
}

type codecPair struct {
	id int
	w  float64
}

// walk is the sample's one Snapshot-style method: both directions run
// it unchanged.
func (v *codecSample) walk(c *Codec) {
	c.Begin("alpha")
	c.Uint8(&v.u8)
	c.Bool(&v.b)
	c.Uint64(&v.u64)
	c.Int(&v.i)
	c.Int32(&v.i32)
	c.Int64(&v.i64)
	c.Float64(&v.f)
	c.End()
	c.Begin("beta")
	c.Ints(&v.ints)
	c.Int32s(&v.i32s)
	c.Uint64s(&v.u64s)
	c.Float64s(&v.fs)
	c.Bools(&v.bs)
	c.End()
	c.Begin("gamma")
	c.Len(&v.n, 16)
	Resize(c, &v.filled, v.n)
	for i := range v.filled {
		c.Int(&v.filled[i].id)
		c.Float64(&v.filled[i].w)
	}
	Slice(c, &v.pairs, 16, func(p *codecPair) {
		c.Int(&p.id)
		c.Float64(&p.w)
	})
	c.End()
}

func fullSample() codecSample {
	return codecSample{
		u8: 0xAB, b: true, u64: 0x0123456789ABCDEF, i: -42, i32: -7,
		i64: math.MinInt64, f: math.Copysign(0, -1),
		ints: []int{3, -1, 1 << 40}, i32s: []int32{-2, 9},
		u64s: []uint64{0, math.MaxUint64}, fs: []float64{math.Inf(1), math.Pi},
		bs:     []bool{true, false, true},
		n:      2,
		filled: []codecPair{{7, 1.5}, {8, 2.5}},
		pairs:  []codecPair{{1, 20}, {-3, math.Inf(-1)}},
	}
}

// edgeSample holds the values the other sample leaves out: a NaN with
// a payload, the other extreme integers, false, and a walk whose
// slices are all empty but one.
func edgeSample() codecSample {
	nan := math.Float64frombits(0x7FF8000000000001)
	return codecSample{
		u64: math.MaxUint64, i: math.MaxInt64, i32: math.MinInt32,
		i64: math.MaxInt64, f: nan,
		fs: []float64{nan, math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64},
	}
}

// section is one named payload of a file spelled out by frame.
type section struct {
	name    string
	payload []byte
}

// frame spells out a snapshot file around the given payloads with
// encoding/binary and hash/crc32 alone, in the layout the package
// comment gives, so that the tests' expected bytes do not come from
// the code under test.
func frame(secs ...section) []byte {
	table := crc32.MakeTable(crc32.Castagnoli)
	le := binary.LittleEndian
	b := le.AppendUint32([]byte("LBSNAP\r\n"), Version)
	b = le.AppendUint32(b, uint32(len(secs)))
	for _, s := range secs {
		b = append(b, byte(len(s.name)))
		b = append(b, s.name...)
		b = le.AppendUint32(b, uint32(len(s.payload)))
		b = append(b, s.payload...)
		b = le.AppendUint32(b, crc32.Checksum(s.payload, table))
	}
	return le.AppendUint32(b, crc32.Checksum(b, table))
}

// layout spells out the file v's walk writes: fixed-width
// little-endian integers, floats as their bit patterns, bools as one
// byte, and a uint32 count before every slice. It is injective, so
// two values with the same layout agree bit for bit.
func layout(v *codecSample) []byte {
	le := binary.LittleEndian
	boolByte := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	alpha := []byte{v.u8, boolByte(v.b)}
	alpha = le.AppendUint64(alpha, v.u64)
	alpha = le.AppendUint64(alpha, uint64(v.i))
	alpha = le.AppendUint32(alpha, uint32(v.i32))
	alpha = le.AppendUint64(alpha, uint64(v.i64))
	alpha = le.AppendUint64(alpha, math.Float64bits(v.f))

	beta := le.AppendUint32(nil, uint32(len(v.ints)))
	for _, x := range v.ints {
		beta = le.AppendUint64(beta, uint64(x))
	}
	beta = le.AppendUint32(beta, uint32(len(v.i32s)))
	for _, x := range v.i32s {
		beta = le.AppendUint32(beta, uint32(x))
	}
	beta = le.AppendUint32(beta, uint32(len(v.u64s)))
	for _, x := range v.u64s {
		beta = le.AppendUint64(beta, x)
	}
	beta = le.AppendUint32(beta, uint32(len(v.fs)))
	for _, x := range v.fs {
		beta = le.AppendUint64(beta, math.Float64bits(x))
	}
	beta = le.AppendUint32(beta, uint32(len(v.bs)))
	for _, x := range v.bs {
		beta = append(beta, boolByte(x))
	}

	gamma := le.AppendUint32(nil, uint32(v.n))
	for _, p := range v.filled {
		gamma = le.AppendUint64(gamma, uint64(p.id))
		gamma = le.AppendUint64(gamma, math.Float64bits(p.w))
	}
	gamma = le.AppendUint32(gamma, uint32(len(v.pairs)))
	for _, p := range v.pairs {
		gamma = le.AppendUint64(gamma, uint64(p.id))
		gamma = le.AppendUint64(gamma, math.Float64bits(p.w))
	}
	return frame(section{"alpha", alpha}, section{"beta", beta}, section{"gamma", gamma})
}

var samples = []func() codecSample{fullSample, edgeSample}

// TestCodecRoundTrip pins the format to the layout spelled out above:
// one walk of each sample writes exactly those bytes.
func TestCodecRoundTrip(t *testing.T) {
	for k, sample := range samples {
		want := sample()
		w := NewWriter(nil)
		want.walk(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), layout(&want)) {
			t.Fatalf("sample %d: codec bytes differ from the spelled-out layout", k)
		}
	}
}

// TestRoundTrip pins exact-value round-tripping of every primitive:
// reading a sample's layout back, into an empty value or over one
// holding other values, restores every value bit for bit, NaN
// payloads, infinities, negative zero, the extreme integers and empty
// slices included.
func TestRoundTrip(t *testing.T) {
	for k, sample := range samples {
		want := sample()
		data := layout(&want)
		for _, got := range []codecSample{{}, samples[1-k]()} {
			r, err := NewReader(data)
			if err != nil {
				t.Fatal(err)
			}
			got.walk(r)
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(layout(&got), data) {
				t.Fatalf("sample %d read back %+v\nwant %+v", k, got, want)
			}
		}
	}
}

// TestEncoderReuse pins the writing codec's reusable-buffer contract:
// a walk after Reset writes the same bytes again, also after the
// buffer held another snapshot, and once the buffer reached its
// high-water mark, writing allocates nothing.
func TestEncoderReuse(t *testing.T) {
	w := NewWriter(nil)
	for k, sample := range samples {
		want := sample()
		data := layout(&want)
		for pass := 0; pass < 2; pass++ {
			w.Reset()
			want.walk(w)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Bytes(), data) {
				t.Fatalf("sample %d, pass %d: bytes after Reset differ from the layout", k, pass)
			}
		}
		if allocs := testing.AllocsPerRun(50, func() {
			w.Reset()
			want.walk(w)
			_ = w.Close()
		}); allocs != 0 {
			t.Fatalf("warm writing codec allocates %v times per snapshot, want 0", allocs)
		}
	}
}

// TestCodecRemaining: on a reading codec, Remaining counts down the
// open section's unread bytes; it reads 0 on a writing codec and after
// a failure.
func TestCodecRemaining(t *testing.T) {
	full := fullSample()
	w := NewWriter(nil)
	full.walk(w)
	_ = w.Close()
	if n := w.Remaining(); n != 0 {
		t.Fatalf("writing codec: Remaining = %d, want 0", n)
	}
	var v codecSample
	r, _ := NewReader(w.Bytes())
	r.Begin("alpha")
	for _, step := range []struct {
		read func()
		left int
	}{
		{func() {}, 38},
		{func() { r.Uint8(&v.u8) }, 37},
		{func() { r.Bool(&v.b) }, 36},
		{func() { r.Uint64(&v.u64) }, 28},
		{func() { r.Int(&v.i) }, 20},
		{func() { r.Int32(&v.i32) }, 16},
		{func() { r.Int64(&v.i64) }, 8},
		{func() { r.Float64(&v.f) }, 0},
	} {
		step.read()
		if n := r.Remaining(); n != step.left {
			t.Fatalf("Remaining = %d, want %d", n, step.left)
		}
	}
	r.End()
	r.Begin("alpha") // out of order
	if n := r.Remaining(); r.Err() == nil || n != 0 {
		t.Fatalf("after a failure: Remaining = %d, Err = %v; want 0 and the failure", n, r.Err())
	}
}

// TestCodecLatchesFirstFailure pins the reading codec's error rules:
// the first failure wins, later Begin calls do not advance, later
// reads yield zero, and Close reports that first failure.
func TestCodecLatchesFirstFailure(t *testing.T) {
	full := fullSample()
	w := NewWriter(nil)
	full.walk(w)
	_ = w.Close()
	data := w.Bytes()

	r, _ := NewReader(data)
	r.Begin("beta") // out of order
	var se *Error
	if !errors.As(r.Err(), &se) || !strings.Contains(se.Msg, "order violation") {
		t.Fatalf("out-of-order Begin error = %v", r.Err())
	}
	first := r.Err()
	r.Fail(errors.New("later"))
	r.Begin("alpha")
	var u8 uint8 = 9
	r.Uint8(&u8)
	if u8 != 0 {
		t.Fatalf("read after a latched failure stored %d, want 0", u8)
	}
	r.End()
	if err := r.Close(); err != first {
		t.Fatalf("Close = %v, want the first failure %v", err, first)
	}

	// A walk that stops short of the payload fails at End.
	r, _ = NewReader(data)
	r.Begin("alpha")
	r.Uint8(&u8)
	r.End()
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "left unread") {
		t.Fatalf("short walk error = %v", err)
	}

	// A walk that leaves sections unread fails at Close.
	r, _ = NewReader(data)
	var v codecSample
	r.Begin("alpha")
	r.Uint8(&v.u8)
	r.Bool(&v.b)
	r.Uint64(&v.u64)
	r.Int(&v.i)
	r.Int32(&v.i32)
	r.Int64(&v.i64)
	r.Float64(&v.f)
	r.End()
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "sections consumed") {
		t.Fatalf("early Close error = %v", err)
	}
}
