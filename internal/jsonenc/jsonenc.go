// Package jsonenc appends JSON scalars to a byte slice exactly as
// encoding/json writes them, for the two response encoders that format
// their bulk (float arrays, point lists) without reflection:
// core.MarshalArtifact and the server's /query_range body. Both are
// pinned byte for byte against encoding/json in their own tests.
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

// AppendFloat appends a finite float64 as encoding/json writes it: the
// shortest decimal that round-trips, in exponent form only below 1e-6
// and from 1e21 up (as ES6 does), with a two-digit exponent's leading
// zero dropped. NaN and infinities have no JSON form; callers reject
// them first.
func AppendFloat(out []byte, v float64) []byte {
	abs := math.Abs(v)
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
