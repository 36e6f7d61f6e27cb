package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/dynamic"
	"repro/internal/lineio"
	"repro/internal/task"
)

// The round log is the twin contract's ground truth: one JSONL record
// per stepped round, written ahead of the step, capturing everything
// the wall clock decided — which arrivals were admitted into which
// round, in what order, and which reconfiguration ops rode along.
// Replaying the records through a fresh engine with the same scenario
// configuration reproduces the live Result bit-for-bit (weights
// round-trip exactly: a weight is written as the shortest decimal that
// parses back to the same float64).
//
// The runtime formats and parses its own lines: a log of a few
// thousand rounds carries millions of weights, every round writes one
// line ahead of its step, and every resume reads the log whole. Both
// passes are exact. It writes each weight in [1, 2^53) in one pass
// that takes the shortest decimal between the midpoints to the
// weight's neighbouring float64s, as strconv takes it (appendFloat),
// and any other through strconv, so a line is exactly the bytes
// json.Marshal writes. It reads each weight in one pass that builds the
// decimal significand and scales it by a power of ten, correctly
// rounded, with a division below 2^53 and a multiply from there on
// (parseFloat); a number that pass does not take, with more than 19
// digits or an exponent, or one whose rounding the multiply cannot
// settle, goes to strconv. FuzzAppendFloat and
// FuzzParseFloat hold the two passes to strconv, byte for byte and bit
// for bit. Any line not in AppendRecord's shape — hand-edited, spaced,
// reordered — goes to the strict encoding/json decode every other
// JSONL file uses, so what the log accepts and rejects does not depend
// on which path read a line.

// RoundRecord is one stepped round's external input.
type RoundRecord struct {
	// Round is the engine round the batch was admitted into. Records
	// are consecutive: empty rounds (ticks with no arrivals) are logged
	// too, because service, churn and balancing ran in them.
	Round int `json:"t"`
	// Weights are the admitted arrival weights in admission order.
	Weights []float64 `json:"w,omitempty"`
	// Down/Up are the reconfiguration ops applied ahead of the round.
	Down []int `json:"down,omitempty"`
	Up   []int `json:"up,omitempty"`
	// Dispatch is a policy swap applied at this round boundary (see
	// ParseDispatch for the grammar); "" = no swap.
	Dispatch string `json:"dispatch,omitempty"`
}

// AppendRecord writes rec as one JSONL line: json.Marshal's bytes and
// a newline. A NaN or infinite weight fails as json.Marshal does, and
// nothing is written.
func AppendRecord(w io.Writer, rec *RoundRecord) error {
	_, err := writeRecord(w, make([]byte, 0, 64+20*len(rec.Weights)), rec)
	return err
}

// WriteRecords writes recs as AppendRecord writes each of them, one
// Write per record, formatting every line into one reused buffer.
func WriteRecords(w io.Writer, recs []RoundRecord) error {
	var b []byte
	for i := range recs {
		var err error
		if b, err = writeRecord(w, b, &recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// writeRecord formats rec's line into b's storage and writes it with
// one Write, returning the buffer for the next line.
func writeRecord(w io.Writer, b []byte, rec *RoundRecord) ([]byte, error) {
	b, err := appendRecord(b[:0], rec)
	if err == nil {
		_, err = w.Write(b)
	}
	return b, err
}

// appendRecord appends AppendRecord's line for rec to b.
func appendRecord(b []byte, rec *RoundRecord) ([]byte, error) {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(rec.Round), 10)
	if len(rec.Weights) > 0 {
		b = append(b, `,"w":[`...)
		for i, w := range rec.Weights {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return b, &json.UnsupportedValueError{Value: reflect.ValueOf(w), Str: strconv.FormatFloat(w, 'g', -1, 64)}
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, w)
		}
		b = append(b, ']')
	}
	b = appendInts(b, `,"down":[`, rec.Down)
	b = appendInts(b, `,"up":[`, rec.Up)
	if rec.Dispatch != "" {
		s, err := json.Marshal(rec.Dispatch)
		if err != nil {
			return b, err
		}
		b = append(b, `,"dispatch":`...)
		b = append(b, s...)
	}
	return append(b, '}', '\n'), nil
}

// appendFloat formats a finite w as encoding/json does: the shortest
// decimal that parses back to w, in exponent form below 1e-6 and from
// 1e21, with no leading zero in a negative exponent. A w in [1, 2^53),
// every valid task weight below 2^53, takes one exact pass that makes
// strconv's choices; any other goes to appendFloatSlow, and
// FuzzAppendFloat holds the pass to it byte for byte.
//
// The pass writes w = m·2^-s, m the 53-bit significand, and prints an
// integer w as one, as strconv does. Every power of two in [1, 2^53)
// is an integer, so the rest have neighbouring float64s at the same
// distance on either side. For them s >= 1, and w scaled by 10^q, the
// least power of ten above 2^(s+1), is c + frac/2^s; one Mul64 forms
// m·10^q. The midpoints to the neighbours, (2m∓1)·10^q/2^(s+1), lie
// h/2^s = 10^q/2^(s+1) below and above it: more than 1 and at most 10
// units, and never 5. A midpoint has s+1 binary places and q < s+1,
// so none is a multiple of 10^-q: the numbers at this scale that read
// back as w are exactly l..u, the ceiling and floor of the midpoints.
// The shortest of them is then taken as strconv's ryuDigits32 takes
// it; on intervals this wide its guards against rounding out of l..u
// never fire, so the pass has none.
func appendFloat(b []byte, w float64) []byte {
	fb := math.Float64bits(w)
	s := 1075 - fb>>52
	if s > 52 {
		return appendFloatSlow(b, w)
	}
	m := fb&(1<<52-1) | 1<<52
	if m&(1<<s-1) == 0 {
		return strconv.AppendUint(b, m>>s, 10)
	}
	q := int(s+1)*78913>>18 + 1 // floor((s+1)·log10 2) + 1
	h := pow10u[q] / 2
	hi, lo := bits.Mul64(m, pow10u[q])
	lo1, borrow := bits.Sub64(lo, h, 0)
	lo2, carry := bits.Add64(lo, h, 0)
	c := hi<<(64-s) | lo>>s
	l := ((hi-borrow)<<(64-s) | lo1>>s) + 1
	u := (hi+carry)<<(64-s) | lo2>>s
	frac := lo & (1<<s - 1)
	f := q // digits after the point
	switch {
	case (l+99)/100 <= u/100:
		// u-l < 20, so l..u holds one multiple of 100: strconv's
		// trimming ends on it, however c rounds. It is below 10^16,
		// so it has at most 15 trailing zeros.
		c, f = (l+99)/100, f-2
		if c%1e8 == 0 {
			c, f = c/1e8, f-8
		}
		if c%1e4 == 0 {
			c, f = c/1e4, f-4
		}
		if c%100 == 0 {
			c, f = c/100, f-2
		}
		if c%10 == 0 {
			c, f = c/10, f-1
		}
	case (l+9)/10 <= u/10:
		// One digit off: c rounds half to even on the digit and the
		// remainder it drops. When c/10 truncates below l's decade,
		// the digit it drops is 6 or more, or 5 with a nonzero
		// remainder, so it rounds up into it; rounding up past u's
		// decade would need h/2^s both above and below 5.
		d := c % 10
		c, f = c/10, f-1
		if d > 5 || d == 5 && (frac != 0 || c&1 == 1) {
			c++
		}
	default:
		// c < u, as h/2^s > 1.
		if half := uint64(1) << (s - 1); frac > half || frac == half && c&1 == 1 {
			c++
		}
	}
	// c has f >= 1 digits after the point and no trailing zero: a
	// number in l..u is not an integer, and one that ended in 0 would
	// be in the interval one digit up.
	var buf [24]byte
	i := len(buf)
	for ; f > 1; f -= 2 {
		i -= 2
		buf[i], buf[i+1] = digitPair(c % 100)
		c /= 100
	}
	if f == 1 {
		i--
		buf[i] = byte('0' + c%10)
		c /= 10
	}
	i--
	buf[i] = '.'
	for ; c >= 10; c /= 100 {
		i -= 2
		buf[i], buf[i+1] = digitPair(c % 100)
	}
	if c > 0 {
		i--
		buf[i] = byte('0' + c)
	}
	return append(b, buf[i:]...)
}

// digitPair is the two decimal digits of d < 100.
func digitPair(d uint64) (byte, byte) {
	return byte('0' + d/10), byte('0' + d%10)
}

// appendFloatSlow is appendFloat through strconv. The tests hold
// appendFloat to it.
func appendFloatSlow(b []byte, w float64) []byte {
	format := byte('f')
	if abs := math.Abs(w); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, w, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func appendInts(b []byte, key string, vs []int) []byte {
	if len(vs) == 0 {
		return b
	}
	b = append(b, key...)
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// ReadRoundLog parses and validates a JSONL round log: records must be
// consecutive ascending rounds, weights valid task weights, op indices
// non-negative and any dispatch string parseable. Malformed input
// errors with the offending line number; it never panics (fuzzed by
// FuzzRoundLog). Lines are unbounded: one record carries a whole
// round's admitted backlog, which may hold up to MaxPending weights.
func ReadRoundLog(r io.Reader) ([]RoundRecord, error) {
	var (
		recs  []RoundRecord
		ws    []float64
		arena weightArena
	)
	err := lineio.Lines(r, 0, func(_ int, text []byte) error {
		rec, err := decodeRecord(text, &ws)
		if err != nil {
			return err
		}
		if err := validateRecord(&rec, len(recs)); err != nil {
			return err
		}
		if len(rec.Weights) > 0 {
			rec.Weights = arena.hold(rec.Weights)
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("serve: round log %w", err)
	}
	return recs, nil
}

// weightArena holds the weights of a log's records in shared chunks,
// so that a read allocates once per chunk rather than once per record.
// A chunk starts at 4 KB and doubles up to 256 KB, or is as large as
// one record's weights.
type weightArena []float64

// hold copies ws into the arena and returns the copy, with len == cap:
// an append to it moves it elsewhere instead of writing over the next
// record's weights.
func (a *weightArena) hold(ws []float64) []float64 {
	if len(ws) > cap(*a)-len(*a) {
		*a = make(weightArena, 0, max(len(ws), min(2*cap(*a), 1<<15), 1<<9))
	}
	i := len(*a)
	*a = append(*a, ws...)
	return (*a)[i:len(*a):len(*a)]
}

// decodeRecord decodes one round-log line: a line in AppendRecord's
// shape by parseRecord, any other by the strict decode. Only the strict
// path's record escapes to the heap, which is why this is a function
// of its own rather than part of ReadRoundLog's loop.
func decodeRecord(text []byte, ws *[]float64) (RoundRecord, error) {
	if rec, ok := parseRecord(text, ws); ok {
		return rec, nil
	}
	var rec RoundRecord
	err := lineio.Decode(text, &rec)
	return rec, err
}

// parseRecord parses a line of the shape AppendRecord writes: keys in
// field order, no whitespace, non-empty arrays, JSON numbers and a
// dispatch string of printable ASCII with nothing to unescape. Any
// other line gives ok false and a zero record, for the strict decode;
// a line it accepts gives what the strict decode would
// (FuzzRoundLogCodec checks both). The record's weights are read into
// *ws, scratch space that the next call overwrites.
func parseRecord(p []byte, ws *[]float64) (rec RoundRecord, ok bool) {
	if !cut(&p, `{"t":`) {
		return RoundRecord{}, false
	}
	round, n := parseInt(p)
	if n == 0 {
		return RoundRecord{}, false
	}
	rec.Round, p = round, p[n:]
	if *ws, ok = parseArray(&p, `,"w":[`, parseFloat, (*ws)[:0]); !ok {
		return RoundRecord{}, false
	}
	if len(*ws) > 0 {
		rec.Weights = *ws
	}
	if rec.Down, ok = parseArray(&p, `,"down":[`, parseInt, nil); !ok {
		return RoundRecord{}, false
	}
	if rec.Up, ok = parseArray(&p, `,"up":[`, parseInt, nil); !ok {
		return RoundRecord{}, false
	}
	if cut(&p, `,"dispatch":"`) {
		i := 0
		for i < len(p) && p[i] >= ' ' && p[i] <= '~' && p[i] != '"' && p[i] != '\\' {
			i++
		}
		if i == len(p) || p[i] != '"' {
			return RoundRecord{}, false
		}
		rec.Dispatch = string(p[:i])
		p = p[i+1:]
	}
	if string(p) != "}" {
		return RoundRecord{}, false
	}
	return rec, true
}

// cut consumes prefix from the front of *p, reporting whether it was
// there.
func cut(p *[]byte, prefix string) bool {
	if len(*p) < len(prefix) || string((*p)[:len(prefix)]) != prefix {
		return false
	}
	*p = (*p)[len(prefix):]
	return true
}

// parseArray parses key, which opens an array, and the non-empty array
// of numbers after it, appending them to dst; an absent key leaves dst
// as it is. The loop reads a local copy of *p, which the compiler can
// keep in registers, and stores it back once.
func parseArray[T any](p *[]byte, key string, number func([]byte) (T, int), dst []T) ([]T, bool) {
	if !cut(p, key) {
		return dst, true
	}
	q := *p
	for {
		v, n := number(q)
		if n == 0 {
			return dst, false
		}
		dst, q = append(dst, v), q[n:]
		if len(q) == 0 || q[0] != ',' {
			ok := cut(&q, "]")
			*p = q
			return dst, ok
		}
		q = q[1:]
	}
}

// parseInt and parseFloat parse the JSON number p starts with as
// encoding/json does for an int and a float64: the value strconv gives
// for the number's bytes, an int with no fraction or exponent. They
// return the number and its length, 0 if p starts with none they
// accept.
func parseInt(p []byte) (int, int) {
	n, integer := numberLen(p)
	if n == 0 || !integer {
		return 0, 0
	}
	v, err := strconv.ParseInt(string(p[:n]), 10, 64)
	if err != nil {
		return 0, 0
	}
	return int(v), n
}

// parseFloat reads a number of at most 19 digits (a lone integer 0 not
// counted) with no exponent part, the shape of every weight
// AppendRecord writes, in one pass: it checks the grammar while it
// builds the decimal significand m, eight fraction digits per step
// where eight are there, and counts the fraction digits k. The value
// is m / 10^k correctly rounded, as strconv rounds it (FuzzParseFloat
// holds it to strconv bit for bit). Any other number, and one whose
// rounding eiselLemire cannot settle, goes to parseFloatSlow.
func parseFloat(p []byte) (float64, int) {
	i, neg := 0, len(p) > 0 && p[0] == '-'
	if neg {
		i++
	}
	var m uint64
	nd := 0 // digits in m
	switch {
	case i < len(p) && p[i] == '0':
		i++
	case i < len(p) && '1' <= p[i] && p[i] <= '9':
		for ; i < len(p) && '0' <= p[i] && p[i] <= '9'; i++ {
			m = m*10 + uint64(p[i]-'0')
			nd++
		}
	default:
		return 0, 0
	}
	k := 0
	if i < len(p) && p[i] == '.' {
		j := i + 1
		for ; j+8 <= len(p); j += 8 {
			v := binary.LittleEndian.Uint64(p[j:])
			if !eightDigits(v) {
				break
			}
			m = m*1e8 + parseEightDigits(v)
		}
		for ; j < len(p) && '0' <= p[j] && p[j] <= '9'; j++ {
			m = m*10 + uint64(p[j]-'0')
		}
		if j == i+1 {
			return 0, 0
		}
		k, i = j-i-1, j
		nd += k
	}
	if nd > 19 || i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		return parseFloatSlow(p)
	}
	var v float64
	if m < 1<<53 {
		// Clinger's fast path: m and 10^k are exact float64s, so the
		// division rounds once. eiselLemire gives the same value, more
		// slowly: BenchmarkReadRoundLog/canonical takes 9.96 ms/op with
		// this branch and 10.56 without it (medians of five alternating
		// pairs at -cpu 1 on 2-core x86-64; faster in 5).
		v = float64(m) / pow10[k]
	} else {
		var ok bool
		if v, ok = eiselLemire(m, k); !ok {
			return parseFloatSlow(p)
		}
	}
	if neg {
		v = -v
	}
	return v, i
}

// parseFloatSlow is parseFloat for any JSON number: strconv of the
// number's bytes. The tests hold parseFloat to it.
func parseFloatSlow(p []byte) (float64, int) {
	n, _ := numberLen(p)
	if n == 0 {
		return 0, 0
	}
	v, err := strconv.ParseFloat(string(p[:n]), 64)
	if err != nil {
		return 0, 0
	}
	return v, n
}

// pow10 and pow10u hold 10^k, k = 0..19, as exact float64s and
// uint64s.
var (
	pow10  [20]float64
	pow10u [20]uint64
)

func init() {
	pow10[0], pow10u[0] = 1, 1
	for k := 1; k < len(pow10); k++ {
		pow10[k], pow10u[k] = pow10[k-1]*10, pow10u[k-1]*10
	}
}

// eiselLemire is m / 10^k rounded to the nearest float64, ties to
// even, for 1 <= m < 2^64 and k <= 19, or ok false when it cannot tell
// which way the value rounds; parseFloat calls it from 2^53 on. It is
// strconv's eiselLemire64 (Lemire, "Number Parsing at a Gigabyte per
// Second", 2021) on the powers 10^-19..10^0 alone. m / 10^k lies in
// [10^-19, 2^64), so it is a normal float64 and the range checks
// eiselLemire64 makes cannot fail.
//
// With m shifted left until its top bit is set, its product with the
// high word of 10^-k's truncated mantissa gives the value's leading
// 128 bits, short by less than m units of the low word. The value's
// 54 leading bits, the 53 kept and the rounding bit, are read from the
// high word, above its low 9 bits. Only when the shortfall could carry
// through those 9 bits does the mantissa's low word take a second
// multiply. If a carry is still possible, or if the product lies
// exactly halfway between two float64s of which the lower is the even
// one, which the final round-half-up would miss, ok is false and the
// value goes to strconv, which settles it in exact decimal arithmetic.
func eiselLemire(m uint64, k int) (v float64, ok bool) {
	clz := bits.LeadingZeros64(m)
	m <<= clz
	exp := uint64(217706*-k>>16+64+1023) - uint64(clz) // floor(-k·log2 10), rebiased
	hi, lo := bits.Mul64(m, invPow10[k][0])
	if hi&0x1ff == 0x1ff && lo+m < m {
		yhi, ylo := bits.Mul64(m, invPow10[k][1])
		var carry uint64
		lo, carry = bits.Add64(lo, yhi, 0)
		hi += carry
		if hi&0x1ff == 0x1ff && lo+1 == 0 && ylo+m < m {
			return 0, false
		}
	}
	msb := hi >> 63
	mant := hi >> (msb + 9) // 54 bits
	exp -= 1 ^ msb
	if lo == 0 && hi&0x1ff == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp++
	}
	return math.Float64frombits(exp<<52 | mant&(1<<52-1)), true
}

// invPow10[k] is the 128-bit mantissa of 10^-k, high word first,
// truncated: floor(2^(127−e) / 10^k) for e = floor(-k·log2 10), the
// entries of strconv's detailedPowersOfTen for exponents -19..0.
var invPow10 = [20][2]uint64{
	{0x8000000000000000, 0x0000000000000000},
	{0xcccccccccccccccc, 0xcccccccccccccccc},
	{0xa3d70a3d70a3d70a, 0x3d70a3d70a3d70a3},
	{0x83126e978d4fdf3b, 0x645a1cac083126e9},
	{0xd1b71758e219652b, 0xd3c36113404ea4a8},
	{0xa7c5ac471b478423, 0x0fcf80dc33721d53},
	{0x8637bd05af6c69b5, 0xa63f9a49c2c1b10f},
	{0xd6bf94d5e57a42bc, 0x3d32907604691b4c},
	{0xabcc77118461cefc, 0xfdc20d2b36ba7c3d},
	{0x89705f4136b4a597, 0x31680a88f8953030},
	{0xdbe6fecebdedd5be, 0xb573440e5a884d1b},
	{0xafebff0bcb24aafe, 0xf78f69a51539d748},
	{0x8cbccc096f5088cb, 0xf93f87b7442e45d3},
	{0xe12e13424bb40e13, 0x2865a5f206b06fb9},
	{0xb424dc35095cd80f, 0x538484c19ef38c94},
	{0x901d7cf73ab0acd9, 0x0f9d37014bf60a10},
	{0xe69594bec44de15b, 0x4c2ebe687989a9b3},
	{0xb877aa3236a4b449, 0x09befeb9fad487c2},
	{0x9392ee8e921d5d07, 0x3aff322e62439fcf},
	{0xec1e4a7db69561a5, 0x2b31e9e3d06c32e5},
}

// eightDigits reports whether the eight bytes of v, read little-endian,
// are all ASCII digits: each byte's high nibble must be 3, and adding 6
// must keep it there.
func eightDigits(v uint64) bool {
	return v&0xf0f0f0f0f0f0f0f0|(v+0x0606060606060606)&0xf0f0f0f0f0f0f0f0>>4 == 0x3333333333333333
}

// parseEightDigits is the value of the eight ASCII digits in v, the
// first digit in the low byte: one multiply-add forms the four
// two-digit numbers, and two multiplies weight them by powers of 100
// and sum them in the high 32 bits.
func parseEightDigits(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8 // byte 2i holds the two-digit number 10·d_2i + d_2i+1
	const pair = 0x000000ff000000ff
	return ((v&pair)*(100+1000000<<32) + (v>>16&pair)*(1+10000<<32)) >> 32
}

// numberLen is the length of the JSON number p starts with, 0 if it
// starts with none; integer reports a number with no fraction or
// exponent.
func numberLen(p []byte) (n int, integer bool) {
	digits := func(i int) int {
		for i < len(p) && '0' <= p[i] && p[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(p) && p[i] == '-' {
		i++
	}
	switch {
	case i < len(p) && p[i] == '0':
		i++
	case i < len(p) && '1' <= p[i] && p[i] <= '9':
		i = digits(i)
	default:
		return 0, false
	}
	integer = true
	if i < len(p) && p[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return 0, false
		}
		i, integer = j, false
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		i++
		if i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return 0, false
		}
		i, integer = j, false
	}
	return i, integer
}

func validateRecord(rec *RoundRecord, idx int) error {
	if rec.Round != idx {
		return fmt.Errorf("round %d, want consecutive round %d", rec.Round, idx)
	}
	for i, w := range rec.Weights {
		if !task.ValidWeight(w) {
			return fmt.Errorf("weight %d is %v, violates wmin >= 1", i, w)
		}
	}
	for _, r := range rec.Down {
		if r < 0 {
			return fmt.Errorf("negative drain target %d", r)
		}
	}
	for _, r := range rec.Up {
		if r < 0 {
			return fmt.Errorf("negative add target %d", r)
		}
	}
	if rec.Dispatch != "" {
		if _, err := ParseDispatch(rec.Dispatch); err != nil {
			return err
		}
	}
	return nil
}

// ParseDispatch resolves a dispatch-policy name from the reconfigure
// API / round log. Grammar:
//
//	uniform | hotspot:<resource> | power-of-<d> | speed-weighted
func ParseDispatch(name string) (dynamic.Dispatch, error) {
	switch {
	case name == "uniform":
		return dynamic.UniformDispatch{}, nil
	case name == "speed-weighted":
		return &dynamic.SpeedWeighted{}, nil
	case strings.HasPrefix(name, "hotspot:"):
		r, err := strconv.Atoi(name[len("hotspot:"):])
		if err != nil || r < 0 {
			return nil, fmt.Errorf("serve: bad hotspot resource in dispatch %q", name)
		}
		return dynamic.HotspotDispatch{Resource: r}, nil
	case strings.HasPrefix(name, "power-of-"):
		d, err := strconv.Atoi(name[len("power-of-"):])
		if err != nil || d < 1 {
			return nil, fmt.Errorf("serve: bad choice count in dispatch %q", name)
		}
		return dynamic.PowerOfD{D: d}, nil
	default:
		return nil, fmt.Errorf("serve: unknown dispatch policy %q (want uniform, hotspot:<r>, power-of-<d> or speed-weighted)", name)
	}
}

// RecoverDispatch scans a round log for the dispatch policy in force
// entering `round`: the last swap recorded strictly before it, or ""
// when the scenario's configured policy still applies. Resume-on-boot
// uses it to restore the live policy before stepping resumes.
func RecoverDispatch(recs []RoundRecord, round int) string {
	name := ""
	for i := range recs {
		if recs[i].Round >= round {
			break
		}
		if recs[i].Dispatch != "" {
			name = recs[i].Dispatch
		}
	}
	return name
}
