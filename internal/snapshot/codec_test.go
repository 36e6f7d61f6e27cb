package snapshot

import (
	"errors"
	"math"
	"reflect"
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

// TestCodecRoundTrip pins that one walk writes exactly the bytes the
// Encoder primitives write for the same values, and reads them back
// into an empty value unchanged.
func TestCodecRoundTrip(t *testing.T) {
	want := fullSample()
	w := NewWriter(nil)
	for pass := 0; pass < 2; pass++ { // the second pass reuses the buffer
		w.Reset()
		want.walk(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data := append([]byte(nil), w.Bytes()...)

	enc := NewEncoder(nil)
	enc.Begin("alpha")
	enc.Uint8(want.u8)
	enc.Bool(want.b)
	enc.Uint64(want.u64)
	enc.Int(want.i)
	enc.Int32(want.i32)
	enc.Int64(want.i64)
	enc.Float64(want.f)
	enc.End()
	enc.Begin("beta")
	enc.Ints(want.ints)
	enc.Int32s(want.i32s)
	enc.Uint64s(want.u64s)
	enc.Float64s(want.fs)
	enc.Bools(want.bs)
	enc.End()
	enc.Begin("gamma")
	for _, ps := range [][]codecPair{want.filled, want.pairs} {
		enc.Uint32(uint32(len(ps)))
		for _, p := range ps {
			enc.Int(p.id)
			enc.Float64(p.w)
		}
	}
	enc.End()
	if ref := enc.Finish(); string(ref) != string(data) {
		t.Fatal("codec bytes differ from the encoder's")
	}

	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var got codecSample
	got.walk(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.f) != math.Float64bits(want.f) {
		t.Fatalf("-0 drifted to bits %#x", math.Float64bits(got.f))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %+v\nwant %+v", got, want)
	}

	if allocs := testing.AllocsPerRun(50, func() {
		w.Reset()
		want.walk(w)
		_ = w.Close()
	}); allocs != 0 {
		t.Fatalf("warm writing codec allocates %v times per snapshot, want 0", allocs)
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
