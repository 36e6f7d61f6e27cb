package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lineio"
	"repro/internal/rng"
)

// FuzzRoundLog hammers the round-log parser with arbitrary bytes: it
// must never panic, and any log it accepts must round-trip — re-encode
// the parsed records and the parser must accept THAT byte-for-byte on a
// second pass (encode∘decode is the identity on canonical logs).
func FuzzRoundLog(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{"t":0}` + "\n"))
	f.Add([]byte(`{"t":0,"w":[1,2.5,3.0009765625]}` + "\n" + `{"t":1,"down":[3],"up":[7],"dispatch":"power-of-2"}` + "\n"))
	f.Add([]byte(`{"t":0,"dispatch":"hotspot:4"}` + "\n\n" + `{"t":1,"dispatch":"speed-weighted"}` + "\n"))
	f.Add([]byte(`{"t":5}` + "\n"))
	f.Add([]byte(`{"t":0,"w":[0.25]}` + "\n"))
	f.Add([]byte(`{"t":0,"bogus":1}` + "\n"))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadRoundLog(bytes.NewReader(data))
		if err != nil {
			return // rejected is fine; panicking is not
		}
		var canon bytes.Buffer
		for i := range recs {
			if err := AppendRecord(&canon, &recs[i]); err != nil {
				t.Fatalf("re-encoding accepted records: %v", err)
			}
		}
		recs2, err := ReadRoundLog(bytes.NewReader(canon.Bytes()))
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v\nlog:\n%s", err, canon.Bytes())
		}
		var canon2 bytes.Buffer
		for i := range recs2 {
			if err := AppendRecord(&canon2, &recs2[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(canon.Bytes(), canon2.Bytes()) {
			t.Fatalf("round log is not canonical after one encode pass:\nfirst:\n%s\nsecond:\n%s",
				canon.Bytes(), canon2.Bytes())
		}
	})
}

// FuzzRoundLogCodec holds the round log's own codec to encoding/json,
// which stays the reference:
//
//   - decode: for any line parseRecord accepts, the record must equal
//     what the strict decode (lineio.Decode) gives;
//   - encode: for a record built from the inputs (raw float bits, any
//     ints, any dispatch string), AppendRecord must write exactly
//     json.Marshal's bytes plus a newline, or fail with json.Marshal's
//     error and write nothing; and parseRecord must read that line back
//     to the record, unless the dispatch string needs escaping.
//
// shape picks the record's fields: bits 0–1 the weight count (0–3),
// bit 2 down, bit 3 up. Run with
//
//	go test -run '^$' -fuzz '^FuzzRoundLogCodec$' -fuzztime 30s ./internal/serve
//
// Records are compared by sameRecord, weights bit for bit.
func FuzzRoundLogCodec(f *testing.F) {
	f.Add([]byte(`{"t":0,"w":[1,2.5],"down":[3],"up":[7],"dispatch":"power-of-2"}`),
		int64(0), uint8(15), math.Float64bits(1), math.Float64bits(2.5), math.Float64bits(19.99),
		int64(3), int64(7), "power-of-2")
	// -0 and 0.0; 2^53+1, a tie that rounds to even; a 19-digit
	// significand and a 20-digit one.
	for _, w := range []string{"-0", "0.0", "9007199254740993", "1.234567890123456789", "1.2345678901234567891"} {
		f.Add([]byte(`{"t":0,"w":[`+w+`]}`), int64(0), uint8(1), math.Float64bits(math.Copysign(0, -1)), uint64(0), uint64(0),
			int64(0), int64(0), "")
	}
	f.Fuzz(func(t *testing.T, line []byte, round int64, shape uint8, w0, w1, w2 uint64, down, up int64, dispatch string) {
		var ws []float64
		if fast, ok := parseRecord(line, &ws); ok {
			var strict RoundRecord
			if err := lineio.Decode(line, &strict); err != nil {
				t.Fatalf("parseRecord accepted %q, the strict decode rejects it: %v", line, err)
			}
			if !sameRecord(fast, strict) {
				t.Fatalf("line %q: parseRecord gives %#v, the strict decode %#v", line, fast, strict)
			}
		}

		rec := RoundRecord{Round: int(round), Dispatch: dispatch}
		for _, bits := range []uint64{w0, w1, w2}[:shape&3] {
			rec.Weights = append(rec.Weights, math.Float64frombits(bits))
		}
		if shape&4 != 0 {
			rec.Down = []int{int(down)}
		}
		if shape&8 != 0 {
			rec.Up = []int{int(up)}
		}
		var got bytes.Buffer
		err := AppendRecord(&got, &rec)
		want, wantErr := json.Marshal(&rec)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() || got.Len() != 0 {
				t.Fatalf("%#v: AppendRecord wrote %q with error %v; json.Marshal fails with %v", rec, got.Bytes(), err, wantErr)
			}
			return
		}
		if err != nil || got.String() != string(want)+"\n" {
			t.Fatalf("%#v: AppendRecord wrote %q (%v), json.Marshal %q", rec, got.Bytes(), err, want)
		}
		back, ok := parseRecord(want, &ws)
		needsEscape := strings.ContainsFunc(dispatch, func(r rune) bool {
			return r < ' ' || r > '~' || strings.ContainsRune(`"\<>&`, r)
		})
		switch {
		case !ok && !needsEscape:
			t.Fatalf("parseRecord rejects AppendRecord's line %q", want)
		case ok && !sameRecord(back, rec):
			t.Fatalf("line %q reads back as %#v, want %#v", want, back, rec)
		}
	})
}

// sameRecord is reflect.DeepEqual with the weights compared bit for
// bit: == on floats would take -0 for 0.
func sameRecord(a, b RoundRecord) bool {
	if len(a.Weights) != len(b.Weights) || (a.Weights == nil) != (b.Weights == nil) {
		return false
	}
	for i := range a.Weights {
		if math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	a.Weights, b.Weights = nil, nil
	return reflect.DeepEqual(a, b)
}

// FuzzParseFloat holds parseFloat to parseFloatSlow, numberLen and
// strconv.ParseFloat: for any bytes, the same length and the same
// bits. Run with
//
//	go test -run '^$' -fuzz '^FuzzParseFloat$' -fuzztime 30s ./internal/serve
func FuzzParseFloat(f *testing.F) {
	for _, s := range []string{
		// Ties: 2^53+1 and 2^53+3 are odd integers halfway between
		// float64s; the fractions are midpoints below 2^53.
		"9007199254740993", "9007199254740995", "18014398509481986",
		"4503599627370496.5", "4503599627370497.5", "2251799813685248.25",
		"1125899906842624.125", "562949953421312.0625",
		// Rounding up to a power of two: a tie and a nearer neighbour.
		"9007199254740991.5", "1.9999999999999999", "0.99999999999999999",
		// 2^53 − 1, 2^53, and m = 2^53 + 1 with one fraction digit.
		"9007199254740991", "9007199254740992", "900719925474099.3",
		// Significands of 16, 17, 19 and 20 digits; the largest of 19
		// digits, with no fraction digit, ten and nineteen, the most
		// eiselLemire takes.
		"1.234567890123456", "19.999999999999996", "1.234567890123456789", "1.2345678901234567891",
		"9999999999999999999", "999999999.9999999999", "0.9999999999999999999",
		"18446744073709551615", "18446744073709551616",
		// 19 and 20 fraction digits, and leading zeros.
		"0.1234567890123456789", "0.12345678901234567891", "0.0000000000000000001",
		"0.000001", "0.00000000000000000001", "1.00000001",
		// Signs, zeros, integers.
		"-0", "0", "0.0", "-0.0", "7", "-12", "20", "1.5,2", "3]",
		// Exponent forms and numbers strconv rejects.
		"1e21", "1.5e-7", "1E+2", "-2e-0", "1e400", "-1e400", "1e-400",
		// Not numbers, or a number cut short.
		"", "-", "01", "1.", ".5", "1e", "1.5e+", "+1", "1.2345678x",
	} {
		f.Add([]byte(s))
	}
	// A 17-digit weight, the shape of most of serve-live's, whose
	// rounding eiselLemire settles only with its second multiply.
	m := uint64(18102938282746233)
	for ; !widerMultiply(m, 16); m++ {
	}
	if _, ok := eiselLemire(m, 16); !ok {
		f.Fatalf("eiselLemire refuses %d·10^-16", m)
	}
	f.Add(fmt.Appendf(nil, "%d.%016d", m/1e16, m%1e16))
	f.Fuzz(func(t *testing.T, p []byte) {
		got, n := parseFloat(p)
		want, wantN := parseFloatSlow(p)
		if n != wantN || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: parseFloat gives %v (%#x) length %d, strconv %v (%#x) length %d",
				p, got, math.Float64bits(got), n, want, math.Float64bits(want), wantN)
		}
	})
}

// TestParseFloatTable reads back, as parseFloat, ~200k numbers that
// reach both of its branches and its fallback: weights shaped like
// serve-live's (Pareto(2) draws capped at 20), random finite bit
// patterns and random significands scaled by 10^-4 to 10^19, all
// written by appendFloat, which must read back to the same bits; and
// decimal midpoints between neighbouring float64s and random digit
// strings, which must read as strconv reads them.
func TestParseFloatTable(t *testing.T) {
	r := rng.NewSeeded(0x9a25e)
	var b []byte
	check := func(b []byte) float64 {
		t.Helper()
		got, n := parseFloat(b)
		want, wantN := parseFloatSlow(b)
		if n != len(b) || wantN != len(b) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%q: parseFloat gives %v (%#x) length %d, strconv %v (%#x) length %d",
				b, got, math.Float64bits(got), n, want, math.Float64bits(want), wantN)
		}
		return got
	}
	roundTrip := func(w float64) {
		t.Helper()
		b = appendFloat(b[:0], w)
		if got := check(b); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%q reads back as %v, want %v", b, got, w)
		}
	}
	for range 100_000 {
		roundTrip(math.Min(r.Pareto(1, 2), 20))
	}
	for range 40_000 {
		if w := math.Float64frombits(r.Uint64()); !math.IsNaN(w) && !math.IsInf(w, 0) {
			roundTrip(w)
		}
	}
	for range 40_000 {
		roundTrip(float64(r.Uint64()>>11) / (1 << 53) * math.Pow(10, float64(r.Intn(24)-4)))
	}
	// Midpoints of [2^e, 2^(e+1)), e = 49..62: (2·mant+1)·2^(e−53),
	// written exactly, with 1 to 4 fraction digits below 2^53. One in
	// eight is the midpoint below 2^(e+1), which rounds up to it.
	for range 10_000 {
		e := 49 + r.Intn(14)
		odd := (r.Uint64()>>11|1<<52)<<1 | 1
		if r.Intn(8) == 0 {
			odd = 1<<54 - 1
		}
		if e >= 53 {
			b = strconv.AppendUint(b[:0], odd<<(e-53), 10)
		} else {
			j := 53 - e
			b = strconv.AppendUint(b[:0], odd*uint64(math.Pow(5, float64(j))), 10)
			b = slices.Insert(b, len(b)-j, '.')
		}
		check(b)
	}
	// Digit strings of 1 to 21 digits, with or without a sign and a
	// fraction.
	for range 20_000 {
		b = b[:0]
		if r.Intn(2) == 0 {
			b = append(b, '-')
		}
		nd := 1 + r.Intn(21)
		dot := r.Intn(nd + 1) // digits before the dot; nd means no dot
		for i := range nd {
			if i == dot {
				if i == 0 {
					b = append(b, '0')
				}
				b = append(b, '.')
			}
			d := byte('0' + r.Intn(10))
			if i == 0 && dot > 1 && d == '0' {
				d = '1'
			}
			b = append(b, d)
		}
		check(b)
	}
}

// widerMultiply reports whether eiselLemire(m, k) takes its second
// multiply: whether the shortfall of the first could carry into the
// bits it keeps.
func widerMultiply(m uint64, k int) bool {
	m <<= bits.LeadingZeros64(m)
	hi, lo := bits.Mul64(m, invPow10[k][0])
	return hi&0x1ff == 0x1ff && lo+m < m
}

// decimal is the significand m and fraction-digit count k of an
// unsigned decimal number of at most 19 digits written without an
// exponent; ok is false for a longer one.
func decimal(b []byte) (m uint64, k int, ok bool) {
	nd, frac := 0, false
	for _, c := range b {
		switch {
		case c == '.':
			frac = true
		case m > 0 || c != '0':
			m = m*10 + uint64(c-'0')
			nd++
			fallthrough
		default:
			if frac {
				k++
			}
		}
	}
	return m, k, nd <= 19
}

// TestInvPow10: each entry of eiselLemire's table is the 128-bit
// mantissa of 10^-k, truncated: floor(2^(127−e) / 10^k), e the
// exponent eiselLemire assumes, and a number of exactly 128 bits.
func TestInvPow10(t *testing.T) {
	for k, got := range invPow10 {
		e := -217706 * k >> 16
		want := new(big.Int).Lsh(big.NewInt(1), uint(127-e))
		want.Quo(want, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil))
		if want.BitLen() != 128 {
			t.Fatalf("10^-%d: 2^%d / 10^%d has %d bits, want 128", k, 127-e, k, want.BitLen())
		}
		lo := new(big.Int).And(want, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		hi := new(big.Int).Rsh(want, 64).Uint64()
		if got != [2]uint64{hi, lo} {
			t.Fatalf("invPow10[%d] = %#x, want %#x", k, got, [2]uint64{hi, lo})
		}
	}
}

// TestEiselLemireCoverage calls eiselLemire directly. It must accept
// every one of TestParseFloatTable's 100,000 weights shaped like
// serve-live's, the same Pareto(2) draws capped at 20, and give each
// back bit for bit, so that strconv reads none of the traffic. On exact
// ties between two float64s from 2^53 on, integers and numbers with up
// to three fraction digits, its rounding up would be wrong for a tie
// whose even neighbour is the lower one, such as 9007199254740993: it
// must refuse those, and may accept only a tie that rounds up, with
// strconv's value. parseFloat must read every tie as strconv does.
func TestEiselLemireCoverage(t *testing.T) {
	r := rng.NewSeeded(0x9a25e)
	var b []byte
	for range 100_000 {
		w := math.Min(r.Pareto(1, 2), 20)
		b = appendFloat(b[:0], w)
		m, k, _ := decimal(b)
		if got, ok := eiselLemire(m, k); !ok || got != w {
			t.Fatalf("%s: eiselLemire(%d, %d) = %v, %v; want %v", b, m, k, got, ok, w)
		}
	}
	if _, ok := eiselLemire(9007199254740993, 0); ok {
		t.Fatal("eiselLemire rounds 2^53+1, a tie, itself")
	}
	ties := []string{"9007199254740993", "9007199254740995", "18014398509481986", "4503599627370496.5", "4503599627370497.5"}
	for range 10_000 {
		// (2·odd+1)·2^(e−53) lies halfway between two float64s of
		// [2^e, 2^(e+1)); below 2^53 it is written with 53−e fraction
		// digits, from 2^53 on as an integer.
		e := 50 + r.Intn(11)
		odd := (r.Uint64()>>11|1<<52)<<1 | 1
		if e >= 53 {
			b = strconv.AppendUint(b[:0], odd<<(e-53), 10)
		} else {
			j := 53 - e
			b = strconv.AppendUint(b[:0], odd*uint64(math.Pow(5, float64(j))), 10)
			b = slices.Insert(b, len(b)-j, '.')
		}
		ties = append(ties, string(b))
	}
	tested, refused := 0, 0
	for _, s := range ties {
		m, k, ok := decimal([]byte(s))
		if !ok || m < 1<<53 {
			continue
		}
		tested++
		want, wantN := parseFloatSlow([]byte(s))
		tie, _ := new(big.Rat).SetString(s)
		up := new(big.Rat).SetFloat64(want).Cmp(tie) > 0
		if v, ok := eiselLemire(m, k); !ok {
			refused++
		} else if !up || v != want {
			t.Fatalf("%s lies halfway between two float64s; eiselLemire(%d, %d) rounds it to %v, strconv to %v", s, m, k, v, want)
		}
		got, n := parseFloat([]byte(s))
		if n != wantN || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: parseFloat gives %v length %d, strconv %v length %d", s, got, n, want, wantN)
		}
	}
	t.Logf("eiselLemire refused %d of %d ties from 2^53 on", refused, tested)
}

// FuzzAppendFloat holds appendFloat to appendFloatSlow, strconv,
// byte for byte: for the float64 with the given bits, and for the one
// with the same fraction bits moved into [1, 2^53), the exact pass's
// domain. Run with
//
//	go test -run '^$' -fuzz '^FuzzAppendFloat$' -fuzztime 30s ./internal/serve
func FuzzAppendFloat(f *testing.F) {
	for _, w := range []float64{
		// Serve-live's weights: the Pareto cap and 17-digit draws.
		1, 20, 1.0000000000000002, 1.8102938282746233, 19.999999999999996,
		// Short decimals, as clients send them.
		2.5, 19.99, 1.1, 3.3, 7.001, 0.1,
		// Below 2^53 with one fraction bit; 2^53 − 1, 2^53 and 2^53 + 2.
		4503599627370496.5, 9007199254740991, 9007199254740992, 9007199254740994,
		// Outside the domain: zeros, negatives, exponent forms, NaN, ±Inf.
		0, math.Copysign(0, -1), -1.5, 1e-7, 5e-324, 1e21, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(math.Float64bits(w))
	}
	// Powers of two, whose lower neighbour is nearer than the upper,
	// and their neighbours.
	for _, e := range []int{0, 1, 3, 10, 26, 52, 53} {
		p := math.Ldexp(1, e)
		f.Add(math.Float64bits(p))
		f.Add(math.Float64bits(math.Nextafter(p, 0)))
		f.Add(math.Float64bits(math.Nextafter(p, math.Inf(1))))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		inDomain := (1023+bits>>52%53)<<52 | bits&(1<<52-1)
		for _, w := range []float64{math.Float64frombits(bits), math.Float64frombits(inDomain)} {
			got, want := appendFloat(nil, w), appendFloatSlow(nil, w)
			if !bytes.Equal(got, want) {
				t.Fatalf("%v (%#x): appendFloat writes %q, strconv %q", w, math.Float64bits(w), got, want)
			}
		}
	})
}

// TestAppendFloatTable holds appendFloat to appendFloatSlow, byte for
// byte, on ~200k numbers: weights shaped like serve-live's (Pareto(2)
// draws capped at 20); random bit patterns inside [1, 2^53), the
// exact pass's domain, and anywhere; every power of two 2^e,
// e = 0..53, and its neighbours on either side; integers up to 2^53;
// and short decimals k/10^j, the weights clients send.
func TestAppendFloatTable(t *testing.T) {
	r := rng.NewSeeded(0xa99f)
	var got, want []byte
	check := func(w float64) {
		t.Helper()
		got, want = appendFloat(got[:0], w), appendFloatSlow(want[:0], w)
		if !bytes.Equal(got, want) {
			t.Fatalf("%v (%#x): appendFloat writes %q, strconv %q", w, math.Float64bits(w), got, want)
		}
	}
	for range 100_000 {
		check(math.Min(r.Pareto(1, 2), 20))
	}
	for range 40_000 {
		check(math.Float64frombits(uint64(1023+r.Intn(53))<<52 | r.Uint64()>>12))
	}
	for range 20_000 {
		check(math.Float64frombits(r.Uint64()))
	}
	for e := 0; e <= 53; e++ {
		p := math.Ldexp(1, e)
		check(p)
		check(math.Nextafter(p, 0))
		check(math.Nextafter(p, math.Inf(1)))
	}
	for k := range 1000 {
		check(float64(k))
	}
	for range 20_000 {
		check(float64(r.Uint64() >> (11 + r.Intn(53))))
	}
	for range 20_000 {
		j := 1 + r.Intn(3)
		check(float64(1+r.Intn(100*int(pow10u[j]))) / pow10[j])
	}
}

// BenchmarkAppendFloat times appendFloat against appendFloatSlow
// (strconv) on two kinds of weight: pareto, serve-live's Pareto(2)
// draws capped at 20, nearly all of them 17 digits long, and short,
// integers and decimals with one to three places such as 2.5 and
// 19.99, the weights lbserve's clients send. One op formats one
// weight.
func BenchmarkAppendFloat(b *testing.B) {
	r := rng.NewSeeded(0x5e7e)
	pareto, short := make([]float64, 4096), make([]float64, 4096)
	for i := range pareto {
		pareto[i] = math.Min(r.Pareto(1, 2), 20)
		j := r.Intn(4)
		short[i] = float64(int(pow10u[j])+r.Intn(19*int(pow10u[j]))) / pow10[j]
	}
	for _, ws := range []struct {
		name string
		ws   []float64
	}{{"pareto", pareto}, {"short", short}} {
		for _, format := range []struct {
			name string
			f    func([]byte, float64) []byte
		}{{"exact", appendFloat}, {"strconv", appendFloatSlow}} {
			b.Run(ws.name+"/"+format.name, func(b *testing.B) {
				buf := make([]byte, 0, 32)
				for i := 0; i < b.N; i++ {
					buf = format.f(buf[:0], ws.ws[i%len(ws.ws)])
				}
			})
		}
	}
}
