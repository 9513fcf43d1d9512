// Package jsonw is a small append-based JSON writer for the hot encode
// paths: the stream checkpoint (internal/core) and the serving layer's
// fact and trust responses (internal/serve). It produces exactly the bytes
// encoding/json produces for the same values — same string escaping with
// HTML escaping on, same float formatting — without reflection and without
// an intermediate value tree, so those paths can keep their wire formats
// bit for bit while encoding at memory speed. Decoding stays on
// encoding/json.
//
// The byte-identity is a tested contract, not an approximation:
// FuzzJSONAppend compares every appender against encoding/json, and the
// callers compare whole documents against encoding/json oracles kept in
// their _test.go files.
package jsonw

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"corroborate/internal/truth"
)

const hexDigits = "0123456789abcdef"

// safe marks the ASCII bytes encoding/json copies into a string verbatim
// under HTML escaping: everything printable except '"', '\\', '<', '>'
// and '&'. DEL (0x7f) is copied verbatim too.
var safe = func() (s [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		s[b] = true
	}
	for _, b := range `"\<>&` {
		s[b] = false
	}
	return s
}()

// AppendString appends s as a JSON string literal, escaped as
// encoding/json escapes it: '"' and '\\' backslash-escaped; \b \f \n \r \t
// as themselves; other control bytes, '<', '>' and '&' as \u00XX; U+2028
// and U+2029 as \u2028 and \u2029; and each invalid UTF-8 byte as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json formats a float64: the shortest
// decimal that round-trips, in 'f' form, or 'e' form when |f| < 1e-6 or
// |f| >= 1e21, with a one-digit negative exponent written e-9, not e-09.
// NaN and ±Inf have no JSON form and are an error, as in encoding/json;
// dst is returned unchanged with it.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("jsonw: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// Writer accumulates one JSON document in B. Value appenders that can
// fail record the first failure in Err and keep going; callers check Err
// once when the document is complete.
type Writer struct {
	B   []byte
	Err error
}

// Raw appends s verbatim; it must already be valid JSON text.
func (w *Writer) Raw(s string) { w.B = append(w.B, s...) }

// String appends s as a JSON string.
func (w *Writer) String(s string) { w.B = AppendString(w.B, s) }

// Int appends n as a JSON number.
func (w *Writer) Int(n int) { w.B = strconv.AppendInt(w.B, int64(n), 10) }

// Float appends f as a JSON number; NaN and ±Inf record an error.
func (w *Writer) Float(f float64) {
	var err error
	if w.B, err = AppendFloat(w.B, f); err != nil && w.Err == nil {
		w.Err = err
	}
}

// Label appends l as its text form ("true", "false" or "unknown"), as
// encoding/json writes a truth.Label through its MarshalText; an invalid
// label records MarshalText's error.
func (w *Writer) Label(l truth.Label) {
	if !l.Valid() {
		if _, err := l.MarshalText(); w.Err == nil {
			w.Err = err
		}
		return
	}
	w.String(l.String())
}
