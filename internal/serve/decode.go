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
// at most once, and every antenna's Traffic slices into one backing array
// per request. Each number is read in that one pass: the grammar check
// also collects strconv.readFloat's mantissa and decimal exponent, which
// then convert in three tiers — Clinger's exact path, Eisel–Lemire
// (atof.go), and strconv.ParseFloat on the token for what neither settles
// (over 19 digits, half-way and subnormal cases, out-of-range exponents).
// Each tier returns the correctly rounded value or declines, so every
// float is bit-identical to strconv.ParseFloat's, the parser
// encoding/json uses.
//
// Any body outside that grammar — escaped or case-folded keys, unknown or
// repeated keys, null, non-integer or out-of-range numbers, trailing data,
// syntax errors — is decoded by encoding/json on the same bytes, so every
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
			f, ok := s.float()
			if !ok {
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

// float reads the longest JSON number at the cursor (RFC 8259 §6:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) and returns the float64
// strconv.ParseFloat returns for it, reporting false when there is none
// or ParseFloat errs (overflow). What may follow the number is the
// caller's grammar, so "01" and "1." read as 0 and 1 and then fail there.
//
// The grammar loop also does strconv.readFloat's bookkeeping: up to 19
// significant digits in man, the decimal exponent in exp10, and trunc
// when a dropped digit is non-zero, with the exponent's digits capped as
// readFloat caps them. So man·10^exp10 is readFloat's value, and exactly
// the token's when !trunc. That value goes to the first tier that settles
// it: exactFloat, then eiselLemire64, then ParseFloat on the token itself.
func (s *classifyScanner) float() (float64, bool) {
	s.skipSpace()
	b, start := s.b, s.i
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp10 := 0, 0 // nd counts the digits held in man
	trunc := false
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				man = man*10 + uint64(b[i]-'0')
				nd++
			} else {
				exp10++
				trunc = trunc || b[i] != '0'
			}
		}
	default:
		return 0, false
	}
	if i+1 < len(b) && b[i] == '.' && '0' <= b[i+1] && b[i+1] <= '9' {
		for i++; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				man = man*10 + uint64(b[i]-'0')
				exp10--
				if man != 0 { // leading zeros only move the exponent
					nd++
				}
			} else {
				trunc = trunc || b[i] != '0'
			}
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j, eneg := i+1, false
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			eneg = b[j] == '-'
			j++
		}
		if j < len(b) && '0' <= b[j] && b[j] <= '9' {
			e := 0
			for i = j; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
				if e < 10000 {
					e = e*10 + int(b[i]-'0')
				}
			}
			if eneg {
				e = -e
			}
			exp10 += e
		}
	}
	if !trunc {
		if f, ok := exactFloat(man, exp10, neg); ok {
			s.i = i
			return f, true
		}
		if f, ok := eiselLemire64(man, exp10, neg); ok {
			s.i = i
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, false
	}
	s.i = i
	return f, true
}

// integer reads a JSON number that is a plain decimal integer fitting in
// bits. A sign, fraction or exponent, like overflow, is left to the
// fallback, as strconv.ParseUint would reject it.
func (s *classifyScanner) integer(bits int) (uint64, bool) {
	s.skipSpace()
	b, i := s.b, s.i
	limit := uint64(1)<<bits - 1
	var v uint64
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			d := uint64(b[i] - '0')
			if v > (limit-d)/10 {
				return 0, false
			}
			v = v*10 + d
		}
	default:
		return 0, false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, false
	}
	s.i = i
	return v, true
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
