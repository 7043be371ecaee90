// Package modring implements fast single-word modular arithmetic for
// moduli below 2⁶², the workhorse of the NTT used by the SEAL-style CPU
// baseline. It provides Barrett reduction for general products and Shoup
// multiplication for products with a precomputed constant operand (twiddle
// factors), matching the inner loops of production BFV libraries.
package modring

import "math/bits"

// Ring is a modulus with its precomputed Barrett constant.
type Ring struct {
	Q uint64
	// barrettHi:barrettLo ≈ floor(2^128 / Q), used for 128-bit Barrett.
	barrettHi uint64
	barrettLo uint64
}

// New returns a Ring for modulus q (1 < q < 2⁶²).
func New(q uint64) *Ring {
	if q < 2 || q >= 1<<62 {
		panic("modring: modulus out of range (need 1 < q < 2^62)")
	}
	// Compute floor(2^128 / q) via two-step division.
	hi, rem := bits.Div64(1, 0, q) // floor(2^64 / q), remainder
	lo, _ := bits.Div64(rem, 0, q)
	return &Ring{Q: q, barrettHi: hi, barrettLo: lo}
}

// Add returns (a + b) mod q for a, b < q.
func (r *Ring) Add(a, b uint64) uint64 {
	s := a + b
	if s >= r.Q || s < a { // s < a detects wraparound (q < 2^62 makes it moot)
		s -= r.Q
	}
	return s
}

// Sub returns (a - b) mod q for a, b < q.
func (r *Ring) Sub(a, b uint64) uint64 {
	d := a - b
	if a < b {
		d += r.Q
	}
	return d
}

// Neg returns (-a) mod q for a < q.
func (r *Ring) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return r.Q - a
}

// Mul returns (a * b) mod q for a, b < q, via 128-bit Barrett reduction.
func (r *Ring) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return r.reduce128(hi, lo)
}

// reduce128 reduces the 128-bit value hi:lo modulo q. The value must
// satisfy x < q·2⁶⁴ — the quotient has to fit one word for the Barrett
// estimate (and the correction loop) to be meaningful. Every caller
// bounds its operands so this holds: products of values below q (Mul),
// lazily-reduced pointwise products folded below 2q per operand, and the
// fused 128-bit accumulations capped by ntt.Acc128Capacity.
func (r *Ring) reduce128(hi, lo uint64) uint64 {
	// q < 2^62 keeps the estimate within one conditional subtraction.
	// Estimate floor(x/q) ≈ floor((x * floor(2^128/q)) / 2^128), computing
	// only the needed upper words of the 256-bit product.
	// x = hi*2^64 + lo; mu = barrettHi*2^64 + barrettLo.
	// t = floor(x*mu / 2^128) = hi*barrettHi + floor((cross terms + ...)/2^64)
	c1hi, c1lo := bits.Mul64(hi, r.barrettLo)
	c2hi, c2lo := bits.Mul64(lo, r.barrettHi)
	c3hi, _ := bits.Mul64(lo, r.barrettLo)

	mid, carry1 := bits.Add64(c1lo, c2lo, 0)
	_, carry2 := bits.Add64(mid, c3hi, 0)
	t := hi*r.barrettHi + c1hi + c2hi + carry1 + carry2

	// rem = x - t*q, then correct (at most twice).
	ph, pl := bits.Mul64(t, r.Q)
	rl, borrow := bits.Sub64(lo, pl, 0)
	rh, _ := bits.Sub64(hi, ph, borrow)
	rem := rl
	for rh != 0 || rem >= r.Q {
		rem2, borrow := bits.Sub64(rem, r.Q, 0)
		rh -= borrow
		rem = rem2
	}
	return rem
}

// BarrettConsts exposes the two words of ⌊2¹²⁸/q⌋ (hi, lo) for kernels
// that inline the 128-bit Barrett reduction — the vectorized pointwise
// and accumulator paths in internal/ntt replicate reduce128 lane-wise
// and need the same constants the scalar reduction uses.
func (r *Ring) BarrettConsts() (hi, lo uint64) { return r.barrettHi, r.barrettLo }

// ReduceWide returns (hi·2⁶⁴ + lo) mod q for a 128-bit value below
// q·2⁶⁴ (see reduce128) — the folding primitive the RNS base-conversion
// kernels use to bring a two-word remainder into a limb channel without
// a hardware division.
func (r *Ring) ReduceWide(hi, lo uint64) uint64 { return r.reduce128(hi, lo) }

// Pow returns a^e mod q.
func (r *Ring) Pow(a, e uint64) uint64 {
	res := uint64(1)
	a %= r.Q
	for e > 0 {
		if e&1 == 1 {
			res = r.Mul(res, a)
		}
		a = r.Mul(a, a)
		e >>= 1
	}
	return res
}

// Inv returns the inverse of a mod q (q prime), via Fermat.
func (r *Ring) Inv(a uint64) uint64 { return r.Pow(a, r.Q-2) }

// ShoupConst precomputes floor(w * 2^64 / q) for Shoup multiplication by
// the fixed operand w.
func (r *Ring) ShoupConst(w uint64) uint64 {
	hi, _ := bits.Div64(w, 0, r.Q)
	return hi
}

// MulShoup returns (a * w) mod q given wShoup = ShoupConst(w). This is the
// two-multiply butterfly primitive (Harvey, "Faster arithmetic for
// number-theoretic transforms").
func (r *Ring) MulShoup(a, w, wShoup uint64) uint64 {
	res := r.MulShoupLazy(a, w, wShoup)
	if res >= r.Q {
		res -= r.Q
	}
	return res
}

// MulShoupLazy is MulShoup without the final conditional subtraction: the
// result lies in [0, 2q). It accepts any a < 2^64 (the quotient estimate
// floor(a·wShoup/2^64) undershoots floor(a·w/q) by at most one), which is
// what lets the NTT butterflies run on lazily-reduced values < 4q.
func (r *Ring) MulShoupLazy(a, w, wShoup uint64) uint64 {
	qhat, _ := bits.Mul64(a, wShoup)
	return a*w - qhat*r.Q
}
