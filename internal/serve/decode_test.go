package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
)

// decodeCases seed both the table test and FuzzDecodeClassify. fast marks
// the bodies inside the canonical grammar, which must not fall back.
var decodeCases = []struct {
	name string
	body string
	fast bool
}{
	{"canonical", `{"antennas":[{"id":1,"revision":9,"traffic":[1.5,2e-3,3E+2]},{"id":2,"traffic":[0,-1,12345678901234567890]}]}`, true},
	{"reordered keys", `{"antennas":[{"traffic":[4,5,6],"revision":18446744073709551615,"id":4294967295}]}`, true},
	{"whitespace everywhere", " \t\n{ \r\"antennas\" :\n[ { \"id\" : 7 ,\t\"traffic\" : [ 1 , 2.25 ] } ] }\n ", true},
	{"negative zero", `{"antennas":[{"id":0,"traffic":[-0,-0.0,0e0]}]}`, true},
	{"empty antennas", `{"antennas":[]}`, true},
	{"empty object", `{}`, true},
	{"empty antenna", `{"antennas":[{}]}`, true},
	{"empty traffic", `{"antennas":[{"id":3,"traffic":[]}]}`, true},
	{"subnormal", `{"antennas":[{"traffic":[4.9e-324,1e-400,2.2250738585072014e-308]}]}`, true},
	// Each of these takes the scanner's strconv tier, still without the
	// encoding/json fallback: a mantissa past 19 digits, a half-way case
	// Eisel–Lemire cannot settle, and subnormals.
	{"20-digit mantissa", `{"antennas":[{"traffic":[12345678901234567891,0.12345678901234567891e-5]}]}`, true},
	{"1e23", `{"antennas":[{"traffic":[1e23,-1e23]}]}`, true},
	{"subnormal tier", `{"antennas":[{"traffic":[2.2250738585072011e-308,2.4703282292062327e-324,-5e-324]}]}`, true},

	{"case-folded key", `{"antennas":[{"ID":1,"traffic":[1,2,3]}]}`, false},
	{"case-folded top key", `{"Antennas":[{"id":1,"traffic":[1,2,3]}]}`, false},
	{"escaped key", `{"antennas":[{"\u0069d":1,"traffic":[1,2,3]}]}`, false},
	{"unknown key", `{"antennas":[{"id":1,"site":"x","traffic":[1,2,3]}]}`, false},
	{"duplicate antennas", `{"antennas":[{"id":1,"revision":4,"traffic":[1,2,3]}],"antennas":[{"traffic":[9]}]}`, false},
	{"duplicate traffic", `{"antennas":[{"id":1,"traffic":[1,2,3],"traffic":[4]}]}`, false},
	{"duplicate id", `{"antennas":[{"id":1,"id":2,"traffic":[1]}]}`, false},
	{"null body", `null`, false},
	{"null antennas", `{"antennas":null}`, false},
	{"null traffic", `{"antennas":[{"id":1,"traffic":null}]}`, false},
	{"null element", `{"antennas":[{"id":1,"traffic":[1,null]}]}`, false},
	{"fractional id", `{"antennas":[{"id":1.0,"traffic":[1,2,3]}]}`, false},
	{"exponent id", `{"antennas":[{"id":1e2,"traffic":[1,2,3]}]}`, false},
	{"negative id", `{"antennas":[{"id":-1,"traffic":[1,2,3]}]}`, false},
	{"id overflow", `{"antennas":[{"id":4294967296,"traffic":[1,2,3]}]}`, false},
	{"revision overflow", `{"antennas":[{"id":1,"revision":18446744073709551616,"traffic":[1]}]}`, false},
	{"string id", `{"antennas":[{"id":"1","traffic":[1,2,3]}]}`, false},
	{"float overflow", `{"antennas":[{"id":1,"traffic":[1e400]}]}`, false},
	{"leading zero", `{"antennas":[{"id":1,"traffic":[01]}]}`, false},
	{"bare dot", `{"antennas":[{"id":1,"traffic":[1.]}]}`, false},
	{"plus sign", `{"antennas":[{"id":1,"traffic":[+1]}]}`, false},
	{"infinity", `{"antennas":[{"id":1,"traffic":[Infinity]}]}`, false},
	{"trailing comma", `{"antennas":[{"id":1,"traffic":[1,2,]}]}`, false},
	{"trailing data", `{"antennas":[{"id":1,"traffic":[1,2,3]}]}xyz`, false},
	{"second value", `{"antennas":[]} {"antennas":[]}`, false},
	{"truncated", `{"antennas":[{"id":1,"traffic":[1,2`, false},
	{"empty body", ``, false},
	{"array body", `[1,2,3]`, false},
	{"missing colon then key", `{"antennas":[{"id" "traffic":[1,2,3]}]}`, false},
	{"adjacent keys", `{"antennas":[{"id""traffic":[1]}]}`, false},
	{"missing colon then revision", `{"antennas":[{"id" "revision":3}]}`, false},
	{"missing top colon", `{"antennas" [{"id":1,"traffic":[1]}]}`, false},
}

// sameDecode fails t unless DecodeClassify and encoding/json agree on
// body: both err or neither, with the same text, and the same ids,
// revisions, vector nil-ness and float bits.
func sameDecode(t *testing.T, body []byte) {
	t.Helper()
	got, gotErr := DecodeClassify(body)
	var want ClassifyRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: error %v, encoding/json %v", body, gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%q: error %q, encoding/json %q", body, gotErr, wantErr)
	}
	if len(got.Antennas) != len(want.Antennas) || (got.Antennas == nil) != (want.Antennas == nil) {
		t.Fatalf("%q: %d antennas (nil %v), encoding/json %d (nil %v)", body,
			len(got.Antennas), got.Antennas == nil, len(want.Antennas), want.Antennas == nil)
	}
	for i, a := range got.Antennas {
		w := want.Antennas[i]
		if a.ID != w.ID || a.Revision != w.Revision {
			t.Fatalf("%q: antenna %d is (id %d, rev %d), encoding/json (id %d, rev %d)",
				body, i, a.ID, a.Revision, w.ID, w.Revision)
		}
		if len(a.Traffic) != len(w.Traffic) || (a.Traffic == nil) != (w.Traffic == nil) {
			t.Fatalf("%q: antenna %d traffic %v, encoding/json %v", body, i, a.Traffic, w.Traffic)
		}
		for j, v := range a.Traffic {
			if math.Float64bits(v) != math.Float64bits(w.Traffic[j]) {
				t.Fatalf("%q: antenna %d traffic[%d] = %v, encoding/json %v", body, i, j, v, w.Traffic[j])
			}
		}
	}
}

func TestDecodeClassifyMatchesEncodingJSON(t *testing.T) {
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			sameDecode(t, []byte(c.body))
			if _, fast := scanClassify([]byte(c.body)); fast != c.fast {
				t.Fatalf("scanner accepted = %v, want %v", fast, c.fast)
			}
		})
	}
	body := bulkClassifyBody(t, 64, 73)
	sameDecode(t, body)
	if _, fast := scanClassify(body); !fast {
		t.Fatal("scanner rejected a json.Marshal'd classify body")
	}
}

// TestDecodeClassifyBoundsVectors pins that each vector's window into the
// shared backing array ends at its own length, so a caller appending to
// one antenna's traffic cannot overwrite the next antenna's.
func TestDecodeClassifyBoundsVectors(t *testing.T) {
	req, err := DecodeClassify([]byte(`{"antennas":[{"traffic":[1,2]},{"traffic":[3,4,5]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range req.Antennas {
		if cap(a.Traffic) != len(a.Traffic) {
			t.Fatalf("antenna %d: cap %d beyond len %d", i, cap(a.Traffic), len(a.Traffic))
		}
	}
}

// FuzzDecodeClassify is the differential oracle: for any bytes,
// DecodeClassify must answer exactly what encoding/json answers.
func FuzzDecodeClassify(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameDecode(t, body)
	})
}

// floatSeeds are the conversion edge cases FuzzClassifyFloat starts from:
// the float64 integer limit, Clinger's exact path at its edges, mantissas
// around the 19-digit cut, long zero runs, the subnormal boundary and the
// overflow boundary.
var floatSeeds = []string{
	"9007199254740991", "9007199254740992", "9007199254740993", "4503599627370496",
	"1e22", "1e23", "123456789e15",
	"1234567890123456789", "12345678901234567890", "9999999999999999999", "18446744073709551616",
	// Just past the half-way point between two float64s, decided only by
	// a digit beyond the 19 the mantissa holds: in the fraction (1 and
	// its successor) and in the integer part (2^64 and its successor).
	"1.000000000000000111022302462515654042363166809082031251", "18446744073709553664000001e-6",
	"0." + strings.Repeat("0", 30) + "1",
	"2.2250738585072011e-308", "4.9e-324", "2.4703282292062327e-324",
	"1.7976931348623157e308", "1.7976931348623159e308",
	"-0", "0e-999",
}

// jsonNumber is the oracle's RFC 8259 number grammar, after the JSON
// whitespace float skips.
var jsonNumber = regexp.MustCompile(`^[ \t\n\r]*(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)`)

// sameFloat fails t unless the scanner's float agrees with
// strconv.ParseFloat on the longest JSON number at the start of in: it
// reads none exactly when there is none or ParseFloat errs, and otherwise
// returns ParseFloat's bits with the cursor just past the number.
func sameFloat(t *testing.T, in []byte) {
	t.Helper()
	s := classifyScanner{b: in}
	got, ok := s.float()
	m := jsonNumber.FindSubmatch(in)
	if m == nil {
		if ok {
			t.Fatalf("%q: float read %v where the grammar has no number", in, got)
		}
		return
	}
	want, err := strconv.ParseFloat(string(m[1]), 64)
	if ok != (err == nil) {
		t.Fatalf("%q: float ok = %v, ParseFloat(%q) err = %v", in, ok, m[1], err)
	}
	if !ok {
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: float = %v (%#x), ParseFloat = %v (%#x)", in, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if s.i != len(m[0]) {
		t.Fatalf("%q: cursor stopped at %d, want %d", in, s.i, len(m[0]))
	}
}

// FuzzClassifyFloat is the scanner's float conversion against
// strconv.ParseFloat: accept or reject, bits and cursor, for any bytes.
// Each seed also runs negated, between whitespace and a bracket, and
// followed by a fraction or exponent that never completes.
func FuzzClassifyFloat(f *testing.F) {
	for _, seed := range floatSeeds {
		for _, in := range []string{seed, "-" + seed, " " + seed + "]", seed + ".", seed + "e", seed + "e+"} {
			f.Add([]byte(in))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		sameFloat(t, in)
	})
}

// TestPow10TableRows pins the computed Eisel–Lemire table against rows of
// the literal table in Go's strconv/eisel_lemire.go: both ends, 1e-1 and
// 1e0.
func TestPow10TableRows(t *testing.T) {
	pow := detailedPowersOfTen()
	for _, c := range []struct {
		q   int
		row [2]uint64
	}{
		{-348, [2]uint64{0x1732C869CD60E453, 0xFA8FD5A0081C0288}},
		{-1, [2]uint64{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}},
		{0, [2]uint64{0x0000000000000000, 0x8000000000000000}},
		{347, [2]uint64{0x4B7195F2D2D1A9FB, 0xD13EB46469447567}},
	} {
		if got := pow[c.q-pow10MinExp10]; got != c.row {
			t.Errorf("1e%d row = {%#x, %#x}, strconv has {%#x, %#x}", c.q, got[0], got[1], c.row[0], c.row[1])
		}
	}
}

// TestEveryPow10Row converts m·10^q for every table row q and three
// mantissas: one digit, the largest exact float64 integer, and the largest
// 19-digit mantissa. Eisel–Lemire must match ParseFloat whenever it
// answers, and must answer for most rows, so the rows are really used.
func TestEveryPow10Row(t *testing.T) {
	answered, total := 0, 0
	for q := pow10MinExp10; q <= pow10MaxExp10; q++ {
		for _, m := range []uint64{1, 1<<53 - 1, 9999999999999999999} {
			in := fmt.Sprintf("%de%d", m, q)
			sameFloat(t, []byte(in))
			want, err := strconv.ParseFloat(in, 64)
			total++
			if f, ok := eiselLemire64(m, q, false); ok {
				answered++
				if err != nil || math.Float64bits(f) != math.Float64bits(want) {
					t.Fatalf("%s: Eisel–Lemire = %v, ParseFloat = %v (err %v)", in, f, want, err)
				}
			}
		}
	}
	if answered < total*3/4 {
		t.Fatalf("Eisel–Lemire answered %d of %d rows", answered, total)
	}
}

// bulkClassifyBody builds a json.Marshal'd request of n antennas with
// services full-precision log-normal volumes, the shape bulk classify
// clients send.
func bulkClassifyBody(t testing.TB, n, services int) []byte {
	t.Helper()
	src := rng.New(5)
	req := ClassifyRequest{Antennas: make([]AntennaVector, n)}
	for i := range req.Antennas {
		v := make([]float64, services)
		for j := range v {
			v[j] = src.LogNormal(3, 2)
		}
		req.Antennas[i] = AntennaVector{ID: uint32(i), Traffic: v}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

var decodeSink ClassifyRequest

// BenchmarkDecodeClassify decodes a 512-antenna × 73-service body, the
// shape of a bulk classify request, with the scanner and with the
// reflective decoder it replaces.
func BenchmarkDecodeClassify(b *testing.B) {
	body := bulkClassifyBody(b, 512, 73)
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			req, err := DecodeClassify(body)
			if err != nil {
				b.Fatal(err)
			}
			decodeSink = req
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req ClassifyRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
			decodeSink = req
		}
	})
}
