package poly

import (
	"fmt"
	"math/big"
	"math/bits"
	"slices"
)

// MulNegacyclicZ returns the negacyclic product of a and b over the
// integers, with no reduction: the BFV tensor is computed over Z before
// its rescaling by t/q. Coefficients may be negative; a and b must have
// the same length.
func MulNegacyclicZ(a, b []*big.Int) []*big.Int {
	return mulKronecker(a, b, maxBitLen(a)+maxBitLen(b))
}

// mulKronecker returns the negacyclic product over Z of a and b, whose
// coefficient products are below 2^prodBits in magnitude, as one
// Kronecker product (D. Harvey, J. Symbolic Computation 44(10), 2009):
// each operand is packed into one integer, coefficient i in slot i,
// math/big multiplies the two once, and the plain product's coefficients
// d_0 … d_{2n−2} are read back slot by slot and folded, d_k − d_{k+n}.
// A slot is whole words: packing copies words and unpacking reads each
// slot's own window, never a shift of the whole product. It holds a sum
// of n products, below 2^(prodBits+⌈log₂n⌉), and a sign bit: adding half
// a slot, 2^(s−1), to every d_k makes each window non-negative, so no
// slot borrows from the next.
func mulKronecker(a, b []*big.Int, prodBits int) []*big.Int {
	n := len(a)
	if len(b) != n || n == 0 {
		panic(fmt.Sprintf("poly: product of %d and %d coefficients", len(a), len(b)))
	}
	slot := (prodBits + bits.Len(uint(n-1)) + 1 + bits.UintSize - 1) / bits.UintSize
	d := make([]big.Int, 2*n-1)
	offset := make([]big.Word, len(d)*slot)
	for k := range d {
		offset[(k+1)*slot-1] = 1 << (bits.UintSize - 1)
	}
	half := new(big.Int).SetBits(offset[:slot])
	p := new(big.Int).Mul(pack(a, slot), pack(b, slot))
	words := p.Add(p, new(big.Int).SetBits(offset)).Bits()
	for k := range d {
		d[k].SetBits(slices.Clone(words[min(k*slot, len(words)):min((k+1)*slot, len(words))]))
		d[k].Sub(&d[k], half)
	}
	out := make([]*big.Int, n)
	for k := range out {
		if k+n < len(d) {
			d[k].Sub(&d[k], &d[k+n])
		}
		out[k] = &d[k]
	}
	return out
}

// pack returns Σ cᵢ·2^(i·s) for a slot of s bits: the positive and the
// negative coefficients are packed apart and the second integer is
// subtracted from the first.
func pack(c []*big.Int, slot int) *big.Int {
	pos := make([]big.Word, len(c)*slot)
	neg := make([]big.Word, len(c)*slot)
	for i, v := range c {
		dst := pos
		if v.Sign() < 0 {
			dst = neg
		}
		copy(dst[i*slot:], v.Bits())
	}
	p := new(big.Int).SetBits(pos)
	return p.Sub(p, new(big.Int).SetBits(neg))
}

func maxBitLen(c []*big.Int) int {
	m := 0
	for _, v := range c {
		m = max(m, v.BitLen())
	}
	return m
}
