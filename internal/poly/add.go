package poly

import (
	"math"
	"math/big"
	"math/bits"
)

// load128 reads four limbs as two 64-bit words, low word first.
func load128(c []uint32) (lo, hi uint64) {
	_ = c[3]
	return uint64(c[0]) | uint64(c[1])<<32, uint64(c[2]) | uint64(c[3])<<32
}

func store64(c []uint32, v uint64) {
	_ = c[1]
	c[0], c[1] = uint32(v), uint32(v>>32)
}

func store128(c []uint32, lo, hi uint64) {
	_ = c[3]
	c[0], c[1], c[2], c[3] = uint32(lo), uint32(lo>>32), uint32(hi), uint32(hi>>32)
}

// addW4 is Add for four-limb moduli, the 109-bit preset's width. It adds
// each coefficient as a two-word bits.Add64 pair and picks the reduced or
// unreduced sum with a mask rather than a branch: on random residues the
// "≥ q" test goes either way about half the time, so a branch mispredicts
// on every other coefficient. It computes exactly what limb32.AddMod
// computes, on every input.
func addW4(d, a, b []uint32, q0, q1 uint64) {
	a, b = a[:len(d)], b[:len(d)]
	for i := 0; i+3 < len(d); i += 4 {
		x0, x1 := load128(a[i:])
		y0, y1 := load128(b[i:])
		s0, c := bits.Add64(x0, y0, 0)
		s1, c := bits.Add64(x1, y1, c)
		t0, br := bits.Sub64(s0, q0, 0)
		t1, br := bits.Sub64(s1, q1, br)
		m := -(c | (br ^ 1)) // all ones when the sum is ≥ q
		store128(d[i:], s0^(s0^t0)&m, s1^(s1^t1)&m)
	}
}

// sumCapacity returns how many residues below q a 128-bit accumulator
// holds without wrapping: ⌊(2¹²⁸−1)/q⌋, capped at math.MaxInt, which is
// more addends than any slice holds. Zero means q does not fit 128 bits.
func sumCapacity(q *big.Int) int {
	c := new(big.Int).Lsh(big.NewInt(1), 128)
	c.Sub(c, big.NewInt(1)).Div(c, q)
	if c.BitLen() >= bits.UintSize {
		return math.MaxInt
	}
	return int(c.Int64())
}

// SumBlock is the most coefficients one SumRange call sums: their
// 128-bit accumulators (8 KB) stay in L1 while every addend's slice of
// the block streams past them once. A caller summing whole polynomials
// walks them in SumBlock-coefficient pieces.
const SumBlock = 512

// SumRange sets coefficients [lo, hi) of dst to Σ ps[j] mod q, for
// hi − lo ≤ SumBlock. Each coefficient sums in a 128-bit accumulator with
// no reduction per addend and is reduced once at the end; a sum of more
// than sumCapacity(q) residues also reduces each time the accumulator
// fills. Inputs must be reduced mod q, and q must be below 2¹²⁷ (every
// modulus the double-CRT backend accepts is). dst may alias an input; a
// sum of no polynomials is zero.
func SumRange(dst *Poly, ps []*Poly, lo, hi int, mod *Modulus) {
	w, capacity := mod.W, mod.sumCap
	if capacity < 2 {
		panic("poly: SumRange needs q < 2^127")
	}
	if hi-lo > SumBlock {
		panic("poly: SumRange range exceeds SumBlock")
	}
	if dst.W != w {
		panic("poly: operand shape mismatch")
	}
	for _, p := range ps {
		if p.N != dst.N || p.W != w {
			panic("poly: operand shape mismatch")
		}
	}
	var buf [2 * SumBlock]uint64 // (low, high) word pairs
	acc := buf[:2*(hi-lo)]
	held := 0 // residues summed into acc
	for _, p := range ps {
		if held == capacity {
			reduce128(acc, held, mod.q0, mod.q1)
			held = 1
		}
		accumulate(acc, p.C[lo*w:hi*w], w)
		held++
	}
	reduce128(acc, held, mod.q0, mod.q1)
	storeBlock(dst.C[lo*w:hi*w], acc, w)
}

// accumulate adds the w-limb coefficients c into the 128-bit
// accumulators acc, one (low, high) pair per coefficient.
func accumulate(acc []uint64, c []uint32, w int) {
	switch w {
	case 1:
		for len(c) >= 1 && len(acc) >= 2 {
			lo, carry := bits.Add64(acc[0], uint64(c[0]), 0)
			acc[0], acc[1] = lo, acc[1]+carry
			c, acc = c[1:], acc[2:]
		}
	case 2:
		for len(c) >= 2 && len(acc) >= 2 {
			lo, carry := bits.Add64(acc[0], uint64(c[0])|uint64(c[1])<<32, 0)
			acc[0], acc[1] = lo, acc[1]+carry
			c, acc = c[2:], acc[2:]
		}
	default:
		for len(c) >= 4 && len(acc) >= 2 {
			lo, carry := bits.Add64(acc[0], uint64(c[0])|uint64(c[1])<<32, 0)
			hi, _ := bits.Add64(acc[1], uint64(c[2])|uint64(c[3])<<32, carry)
			acc[0], acc[1] = lo, hi
			c, acc = c[4:], acc[2:]
		}
	}
}

// reduce128 brings every accumulator, a sum of at most held residues and
// so below held·q, under q by conditionally subtracting q·2ʲ for
// j = bits.Len(held)−1 … 0: binary long division with the quotient
// dropped. Each step selects with a mask, not a branch, as addW4 does.
// held ≤ sumCapacity(q) keeps every q·2ʲ within 128 bits.
func reduce128(acc []uint64, held int, q0, q1 uint64) {
	top := bits.Len(uint(held)) - 1
	for i := 0; i+1 < len(acc); i += 2 {
		v0, v1 := acc[i], acc[i+1]
		for j := top; j >= 0; j-- {
			s := uint(j)
			t0, br := bits.Sub64(v0, q0<<s, 0)
			t1, br := bits.Sub64(v1, q1<<s|q0>>(64-s), br)
			m := br - 1 // all ones when v ≥ q·2ʲ
			v0 ^= (v0 ^ t0) & m
			v1 ^= (v1 ^ t1) & m
		}
		acc[i], acc[i+1] = v0, v1
	}
}

// storeBlock writes reduced accumulators back as w-limb coefficients.
func storeBlock(d []uint32, acc []uint64, w int) {
	switch w {
	case 1:
		acc = acc[:2*len(d)]
		for i := range d {
			d[i] = uint32(acc[2*i])
		}
	case 2:
		for i := 0; i+1 < len(d); i += 2 {
			store64(d[i:], acc[i])
		}
	default:
		for i := 0; i+3 < len(d); i += 4 {
			store128(d[i:], acc[i/2], acc[i/2+1])
		}
	}
}
