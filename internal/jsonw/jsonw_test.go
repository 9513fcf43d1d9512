package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"corroborate/internal/truth"
)

// stringCases exercise every escape branch: HTML-sensitive bytes, quotes
// and backslashes, the short control escapes, the \u00XX control escapes,
// DEL, U+2028/U+2029 (written here as raw UTF-8 bytes), a literal U+FFFD,
// truncated and stray continuation bytes, and multi-byte text.
var stringCases = []string{
	"", "plain", "<a&b>", `q"uote\back`,
	"\b\f\n\r\t", "\x00\x01\x1f", "\x7f",
	"line\xe2\x80\xa8para\xe2\x80\xa9", "\xe2\x80\xa7\xe2\x80\xaa",
	"rep\xef\xbf\xbdlace", "bad\xff\xfe", "trunc\xc3", "\x80\x80", "\xed\xa0\x80",
	"\xc3\xbcn\xc3\xaf \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80",
}

var floatCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.9, 0.1 + 0.2, 1e-6, 9.99999e-7, 1e-7,
	-1e-7, 1e-9, 1.5e-10, 5e-324, 2.2250738585072014e-308, math.MaxFloat64,
	1e20, 1e21, -1e21, 123456789012345678901234.0, 1e100, 3.0000000000000004e-7,
}

func oracle(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%#v): %v", v, err)
	}
	return b
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range stringCases {
		if got, want := AppendString(nil, s), oracle(t, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range floatCases {
		got, err := AppendFloat([]byte("x"), f)
		if err != nil {
			t.Fatalf("AppendFloat(%v): %v", f, err)
		}
		if want := append([]byte("x"), oracle(t, f)...); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
}

// TestUnsupportedValuesFail pins the failure modes encoding/json has:
// NaN, ±Inf and an invalid label are errors, never written out.
func TestUnsupportedValuesFail(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("encoding/json accepted %v", f)
		}
		got, err := AppendFloat([]byte("x"), f)
		if err == nil || string(got) != "x" {
			t.Errorf("AppendFloat(%v) = %q, %v; want dst unchanged and an error", f, got, err)
		}
		w := Writer{}
		w.Float(f)
		w.Float(0.5)
		if w.Err == nil || string(w.B) != "0.5" {
			t.Errorf("Writer.Float(%v) left B=%q Err=%v", f, w.B, w.Err)
		}
	}
	w := Writer{}
	w.Label(truth.Label(5))
	if w.Err == nil || len(w.B) != 0 {
		t.Errorf("Writer.Label(5) left B=%q Err=%v", w.B, w.Err)
	}
	for _, l := range []truth.Label{truth.True, truth.False, truth.Unknown} {
		w := Writer{}
		w.Label(l)
		if want := oracle(t, l); w.Err != nil || !bytes.Equal(w.B, want) {
			t.Errorf("Writer.Label(%v) = %s, %v; encoding/json writes %s", l, w.B, w.Err, want)
		}
	}
}

// FuzzJSONAppend: for any string and any float64, the appenders write
// exactly what encoding/json writes, and refuse exactly what it refuses.
func FuzzJSONAppend(f *testing.F) {
	for i, s := range stringCases {
		f.Add(s, math.Float64bits(floatCases[i%len(floatCases)]))
	}
	f.Add("", math.Float64bits(math.NaN()))
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		if got, want := AppendString(nil, s), oracle(t, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
		x := math.Float64frombits(bits)
		got, err := AppendFloat(nil, x)
		want, werr := json.Marshal(x)
		if (err == nil) != (werr == nil) {
			t.Fatalf("AppendFloat(%v) error %v, encoding/json error %v", x, err, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, encoding/json writes %s", x, got, want)
		}
	})
}
