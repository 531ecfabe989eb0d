// Package jsonenc appends JSON scalars to a byte slice exactly as
// encoding/json writes them, for the three encoders that format their
// bulk (float arrays, point lists, chunk summaries) without reflection:
// core.MarshalArtifact, the server's /query_range body and the store's
// block index with its companions. All are pinned byte for byte against
// encoding/json in their own tests.
//
// Most values a metrics store serves are short decimals — cents, integer
// counts, ratios with a few digits — and AppendFloat prints those without
// strconv's shortest-digit search. The fast path is exact, not
// approximate: for |v| ≥ 1e-4 with m = |v|·10⁴ < 2⁴³ (so |v| < 2³⁰), it
// takes n = round(m) and accepts iff the double nearest n/10⁴ is v, then
// prints n with the decimal point four places from the right and trailing
// zeros dropped. Why that is what strconv prints:
//
//   - The decimals that parse back to v fill an interval one ulp wide,
//     and below 2³⁰ an ulp is at most 2⁻²³ — about a thousandth of
//     10⁻⁴. So at most one decimal with ≤ 4 fractional digits
//     round-trips to v, and when the check accepts, n/10⁴ is it.
//   - Any other round-tripping decimal with no more significant digits
//     than n/10⁴ would sit on a grid at least as coarse, hence also have
//     ≤ 4 fractional digits, hence be n/10⁴ itself (a leading-digit shift
//     such as 9.99… vs 10 cannot stay inside an interval that narrow).
//     So n/10⁴ is the unique shortest round-tripping decimal: strconv's
//     'f', -1 output.
//   - If some ≤ 4-digit decimal k/10⁴ round-trips, round(m) finds it:
//     v·10⁴ lies within 10⁴·2⁻²⁴ of k and the product's own rounding adds
//     at most 2⁻¹¹, together about 10⁻³, far below ½. The same bound lets
//     a cheap |m−n| test reject most misses before the division.
//
// Everything else — non-short decimals, |v| < 1e-4, |v| ≥ 2⁴³/10⁴ —
// takes the strconv path unchanged.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendString appends s as encoding/json quotes it with HTML escaping
// on (the Marshal and Encoder default): invalid UTF-8 replaced, '<', '>',
// '&', U+2028 and U+2029 escaped. Strings of plain ASCII — every series
// key the store sees in practice — are copied without allocating;
// anything else goes through encoding/json itself.
func AppendString(out []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(out, quoted...)
		}
	}
	out = append(out, '"')
	out = append(out, s...)
	return append(out, '"')
}

// MaxFloatBytes bounds what AppendFloat appends for one value: a sign,
// "0.00000" and 17 significant digits just above 1e-6 (for example
// -0.0000012345678901234567); the exponent form peaks at 24
// (-2.2250738585072014e-308). Encoders size their output with it.
const MaxFloatBytes = 25

// AppendFloat appends a finite float64 as encoding/json writes it: the
// shortest decimal that round-trips, in exponent form only below 1e-6
// and from 1e21 up (as ES6 does), with a two-digit exponent's leading
// zero dropped. Short decimals take the exact fast path described in the
// package doc. NaN and infinities have no JSON form; callers reject them
// first.
func AppendFloat(out []byte, v float64) []byte {
	abs := math.Abs(v)
	if abs >= 1e-4 {
		if m := abs * 1e4; m < 1<<43 {
			// round(m): m + 0.5 is exact below 2^43. One compare on |m−n|
			// rather than two on its sign keeps the reject predictable.
			n := int64(m + 0.5)
			if math.Abs(m-float64(n)) < 1e-2 && float64(n)/1e4 == abs {
				return appendShort(out, v < 0, uint64(n))
			}
		}
	}
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		out = strconv.AppendFloat(out, v, 'e', -1, 64)
		if n := len(out); n >= 4 && out[n-4] == 'e' && (out[n-3] == '-' || out[n-3] == '+') && out[n-2] == '0' {
			out[n-2] = out[n-1]
			out = out[:n-1]
		}
		return out
	}
	return strconv.AppendFloat(out, v, 'f', -1, 64)
}

// appendShort appends ±n/10⁴ in plain decimal: the integer part, then a
// point and the fractional digits with trailing zeros dropped, if any
// remain. The digits are written backwards into a stack buffer and
// appended in one copy.
func appendShort(out []byte, neg bool, n uint64) []byte {
	var buf [15]byte // sign, 9 integer digits below 2^43/10^4, point, 4 decimals
	i := len(buf)
	if frac := n % 1e4; frac != 0 {
		digits := 4
		for frac%10 == 0 {
			frac /= 10
			digits--
		}
		for ; digits > 0; digits-- {
			i--
			buf[i] = byte('0' + frac%10)
			frac /= 10
		}
		i--
		buf[i] = '.'
	}
	for n /= 1e4; ; n /= 10 {
		i--
		buf[i] = byte('0' + n%10)
		if n < 10 {
			break
		}
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return append(out, buf[i:]...)
}
