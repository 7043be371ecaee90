package poly

import (
	"math/bits"

	"repro/internal/limb32"
)

// Polynomial-level Karatsuba multiplication. The paper applies Karatsuba
// at the *limb* level (splitting 64/128-bit coefficients into 32-bit
// chunks, §3); this file applies the same recursion at the *polynomial*
// level — an O(n^1.585) alternative to the O(n²) schoolbook that needs no
// NTT-friendly modulus. It serves as a design-choice ablation: DESIGN.md
// asks which level of the stack the divide-and-conquer pays off at.
//
// Implemented for single-limb (W=1) moduli, where coefficient arithmetic
// is native 64-bit.

// karatsubaPolyThreshold is the size below which schoolbook wins (the
// recursion overhead exceeds the saved multiplies).
const karatsubaPolyThreshold = 16

// MulNegacyclicKaratsuba sets dst = a·b in R_q using polynomial-level
// Karatsuba over the full 2n-1 product followed by the negacyclic fold
// (X^n ≡ −1). Requires mod.W == 1. dst must not alias a or b.
func MulNegacyclicKaratsuba(dst, a, b *Poly, mod *Modulus, m limb32.Meter) {
	checkShapes(dst, a, b, mod)
	if mod.W != 1 {
		panic("poly: MulNegacyclicKaratsuba requires a single-limb modulus")
	}
	n := a.N
	q := mod.QBig.Uint64()

	av := make([]uint64, n)
	bv := make([]uint64, n)
	for i := 0; i < n; i++ {
		av[i] = uint64(a.C[i])
		bv[i] = uint64(b.C[i])
	}
	full := karatsubaFull(av, bv, q, m) // 2n-1 coefficients

	for k := 0; k < n; k++ {
		v := full[k]
		if k+n < len(full) {
			// c[k] - c[k+n] mod q
			v = subMod64(v, full[k+n], q)
			m.Tick(limb32.OpSub, 1)
		}
		dst.C[k] = uint32(v)
	}
	m.Tick(limb32.OpStore, n)
}

// karatsubaFull returns the full product (len(a)+len(b)-1 coefficients)
// of two coefficient vectors mod q.
func karatsubaFull(a, b []uint64, q uint64, m limb32.Meter) []uint64 {
	n := len(a)
	if n <= karatsubaPolyThreshold || n%2 != 0 {
		return schoolbookFull(a, b, q, m)
	}
	h := n / 2
	a0, a1 := a[:h], a[h:]
	b0, b1 := b[:h], b[h:]

	z0 := karatsubaFull(a0, b0, q, m)
	z2 := karatsubaFull(a1, b1, q, m)

	sa := make([]uint64, h)
	sb := make([]uint64, h)
	for i := 0; i < h; i++ {
		sa[i] = addMod64(a0[i], a1[i], q)
		sb[i] = addMod64(b0[i], b1[i], q)
	}
	m.Tick(limb32.OpAdd, 2*h)
	zm := karatsubaFull(sa, sb, q, m)
	// z1 = zm - z0 - z2
	for i := range zm {
		v := zm[i]
		if i < len(z0) {
			v = subMod64(v, z0[i], q)
		}
		if i < len(z2) {
			v = subMod64(v, z2[i], q)
		}
		zm[i] = v
	}
	m.Tick(limb32.OpSub, 2*len(zm))

	out := make([]uint64, 2*n-1)
	copy(out, z0)
	for i, v := range zm {
		out[h+i] = addMod64(out[h+i], v, q)
	}
	for i, v := range z2 {
		out[2*h+i] = addMod64(out[2*h+i], v, q)
	}
	m.Tick(limb32.OpAdd, len(zm)+len(z2))
	return out
}

// schoolbookFull is the base case: plain O(n·m) full product mod q.
func schoolbookFull(a, b []uint64, q uint64, m limb32.Meter) []uint64 {
	out := make([]uint64, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			if bj == 0 {
				continue
			}
			hi, lo := bits.Mul64(ai, bj)
			_, rem := bits.Div64(hi%q, lo, q)
			out[i+j] = addMod64(out[i+j], rem, q)
		}
	}
	m.Tick(limb32.OpMul32, len(a)*len(b))
	m.Tick(limb32.OpAddC, len(a)*len(b))
	return out
}

func addMod64(a, b, q uint64) uint64 {
	s := a + b
	if s >= q {
		s -= q
	}
	return s
}

func subMod64(a, b, q uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + q - b
}
