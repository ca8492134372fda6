package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// DecodeClassify parses a /v1/classify body exactly as
// json.NewDecoder(bytes.NewReader(body)).Decode would, without its
// reflection on the common path.
//
// One hand-written pass reads the canonical grammar
//
//	{"antennas":[{"id":…,"revision":…,"traffic":[…]},…]}
//
// with any JSON whitespace and the three antenna keys in any order, each
// at most once. Floats go through strconv.ParseFloat, the parser
// encoding/json uses, so every value is bit-identical, and every
// antenna's Traffic slices into one backing array per request. Any body
// outside that grammar — escaped or case-folded keys, unknown or repeated
// keys, null, non-integer or out-of-range numbers, trailing data, syntax
// errors — is decoded by encoding/json on the same bytes, so every
// accepted body, every rejected body and every error string is the
// reflective decoder's.
func DecodeClassify(body []byte) (ClassifyRequest, error) {
	if req, ok := scanClassify(body); ok {
		return req, nil
	}
	var req ClassifyRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// trafficSpan locates one antenna's vector in the request's shared
// backing array; set distinguishes an empty "traffic":[] from an absent
// key, which encoding/json decodes to an empty and a nil slice.
type trafficSpan struct {
	lo, hi int
	set    bool
}

// classifyScanner is a cursor over a classify body. Every method reports
// false on the first byte outside the canonical grammar; the caller then
// falls back to encoding/json.
type classifyScanner struct {
	b []byte
	i int
}

// scanClassify is DecodeClassify's fast path; ok is false whenever the
// body leaves the canonical grammar.
func scanClassify(b []byte) (req ClassifyRequest, ok bool) {
	s := classifyScanner{b: b}
	if !s.consume('{') {
		return req, false
	}
	if !s.consume('}') {
		if !s.key("antennas") || !s.consume('[') {
			return req, false
		}
		// json.Marshal'd traffic vectors spend about 19 body bytes per
		// float, so len/16 floats holds a bulk request without regrowth.
		traffic := make([]float64, 0, len(b)/16)
		var spans []trafficSpan
		req.Antennas = []AntennaVector{}
		if !s.consume(']') {
			for {
				var a AntennaVector
				var sp trafficSpan
				if !s.antenna(&a, &sp, &traffic) {
					return req, false
				}
				req.Antennas = append(req.Antennas, a)
				spans = append(spans, sp)
				if s.consume(',') {
					continue
				}
				if !s.consume(']') {
					return req, false
				}
				break
			}
		}
		if !s.consume('}') {
			return req, false
		}
		for k, sp := range spans {
			if sp.set {
				req.Antennas[k].Traffic = traffic[sp.lo:sp.hi:sp.hi]
			}
		}
	}
	s.skipSpace()
	return req, s.i == len(b)
}

// antenna reads one {"id":…,"revision":…,"traffic":[…]} object, appending
// its floats to traffic and recording where they landed in sp.
func (s *classifyScanner) antenna(a *AntennaVector, sp *trafficSpan, traffic *[]float64) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	var seenID, seenRev bool
	for {
		switch {
		case !seenID && s.key("id"):
			seenID = true
			v, ok := s.integer(32)
			if !ok {
				return false
			}
			a.ID = uint32(v)
		case !seenRev && s.key("revision"):
			seenRev = true
			v, ok := s.integer(64)
			if !ok {
				return false
			}
			a.Revision = v
		case !sp.set && s.key("traffic"):
			if !s.floats(sp, traffic) {
				return false
			}
		default:
			return false
		}
		if s.consume(',') {
			continue
		}
		return s.consume('}')
	}
}

// floats reads a [f, …] array of JSON numbers into traffic.
func (s *classifyScanner) floats(sp *trafficSpan, traffic *[]float64) bool {
	if !s.consume('[') {
		return false
	}
	sp.lo, sp.set = len(*traffic), true
	if !s.consume(']') {
		for {
			tok, ok := s.number()
			if !ok {
				return false
			}
			f, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return false
			}
			*traffic = append(*traffic, f)
			if s.consume(',') {
				continue
			}
			if !s.consume(']') {
				return false
			}
			break
		}
	}
	sp.hi = len(*traffic)
	return true
}

// integer reads a JSON number that is a plain decimal integer fitting in
// bits. ParseUint rejects the sign, fraction and exponent a JSON number
// may carry, so those, like overflow, are left to the fallback.
func (s *classifyScanner) integer(bits int) (uint64, bool) {
	tok, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(string(tok), 10, bits)
	return v, err == nil
}

// number returns the JSON number token at the cursor (RFC 8259 §6:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?). What may follow it is
// the caller's grammar, so "01" scans as "0" and then fails there.
func (s *classifyScanner) number() ([]byte, bool) {
	s.skipSpace()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	s.i = i
	return b[start:i], true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// key consumes `"name":` when the next object key is exactly name, with no
// escapes, followed by a colon; otherwise it consumes nothing, so the
// caller can try the next key name from the same place.
func (s *classifyScanner) key(name string) bool {
	s.skipSpace()
	i := s.i
	if i >= len(s.b) || s.b[i] != '"' {
		return false
	}
	end := i + 1 + len(name)
	if end >= len(s.b) || s.b[end] != '"' || string(s.b[i+1:end]) != name {
		return false
	}
	s.i = end + 1
	if !s.consume(':') {
		s.i = i
		return false
	}
	return true
}

// consume skips whitespace and then c, reporting whether c came next.
func (s *classifyScanner) consume(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// skipSpace advances past JSON whitespace.
func (s *classifyScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}
