package serve

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// This file converts a decimal mantissa and exponent that the classify
// scanner has already collected into the float64 strconv.ParseFloat would
// return for the same token. It holds the two tiers of strconv's own
// conversion that need no re-scan: Clinger's exact path and Eisel–Lemire.
// Each either returns the correctly rounded value or reports false, and a
// correctly rounded value is unique, so whichever tier answers, the bits
// are ParseFloat's. The scanner hands everything else to ParseFloat.

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// exactFloat is Clinger's fast path, the |exp10| ≤ 22 part of strconv's
// atof64exact: a mantissa below 2^52 and a power of ten up to 1e22 are
// both exact in a float64, so one multiplication or division rounds the
// exact product once. Positive exponents keep atof64exact's 1e15 guard.
func exactFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	if man>>52 != 0 || exp10 < -22 || exp10 > 22 {
		return 0, false
	}
	f := float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp10 == 0:
		return f, true
	case exp10 > 0:
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * float64pow10[exp10], true
	default:
		return f / float64pow10[-exp10], true
	}
}

// pow10MinExp10 and pow10MaxExp10 are the first and last powers of ten in
// the Eisel–Lemire table, both inclusive.
const (
	pow10MinExp10 = -348
	pow10MaxExp10 = 347
)

// pow10Table holds, for each q in [pow10MinExp10, pow10MaxExp10], the top
// 128 bits of 10^q rounded down, as {low, high} 64-bit words with the high
// word's top bit set. It is strconv's detailedPowersOfTen, computed rather
// than listed.
type pow10Table [pow10MaxExp10 - pow10MinExp10 + 1][2]uint64

// detailedPowersOfTen builds the table on the first conversion that needs
// it (about 11 KB, under a millisecond), not at package init.
var detailedPowersOfTen = sync.OnceValue(func() *pow10Table {
	var t pow10Table
	one := big.NewInt(1)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	var p, r, w big.Int
	for q := pow10MinExp10; q <= pow10MaxExp10; q++ {
		e := int64(q)
		if e < 0 {
			e = -e
		}
		p.Exp(big.NewInt(10), big.NewInt(e), nil)
		if q >= 0 {
			// 10^q is an integer: keep its top 128 bits, shifting left
			// (exactly) or right (rounding down).
			if n := p.BitLen(); n > 128 {
				r.Rsh(&p, uint(n-128))
			} else {
				r.Lsh(&p, uint(128-n))
			}
		} else {
			// 2^k / 10^-q with k = 127 + bitlen(10^-q) lies strictly
			// between 2^127 and 2^128, because 10^-q is no power of two.
			r.Lsh(one, uint(127+p.BitLen()))
			r.Quo(&r, &p)
		}
		t[q-pow10MinExp10][0] = w.And(&r, mask).Uint64()
		t[q-pow10MinExp10][1] = w.Rsh(&r, 64).Uint64()
	}
	return &t
})

// eiselLemire64 is the Eisel–Lemire algorithm, ported from the Go standard
// library's strconv/eisel_lemire.go (Copyright 2020 The Go Authors, BSD
// license), which follows
// https://nigeltao.github.io/blog/2020/eisel-lemire.html. It reports false
// when the 128-bit product cannot settle the rounding (the half-way and
// wider-approximation cases), for subnormal or infinite results, and for
// exponents outside the table; the caller then falls back to strconv. The
// only change is that the table is computed (detailedPowersOfTen).
func eiselLemire64(man uint64, exp10 int, neg bool) (float64, bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			return math.Float64frombits(0x8000000000000000), true // Negative zero.
		}
		return 0, true
	}
	if exp10 < pow10MinExp10 || pow10MaxExp10 < exp10 {
		return 0, false
	}
	row := &detailedPowersOfTen()[exp10-pow10MinExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, row[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, row[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
