package kernels

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/modring"
	"repro/internal/nt"
	"repro/internal/ntt"
)

// The values half of VectorPolyMul. Output k of a pair needs
// pos_k = Σ_{i≤k} a_i·b_(k−i) and neg_k = Σ_{i>k} a_i·b_(n+k−i):
// coefficients k and n+k of the plain (acyclic) product of a and b as
// integer polynomials. convolve computes that product exactly, once per
// pair, by multi-prime NTTs and the CRT.
//
// Each W-limb coefficient v is read as the two's complement
// σ = v − 2^(32W)·e, e = [v ≥ 2^(32W−1)], so that
//
//	a·b = σₐ·σ_b + 2^(32W)·(eₐ·σ_b + σₐ·e_b) + 2^(64W)·eₐ·e_b
//
// term by term as polynomials. A centred coefficient lifted into a wide
// modulus (the 256-bit operands of the benchmark's traced kernel row) is
// a small signed σ plus 2^(32W)·e, so each of the three terms is a
// product of short operands, and each is recovered from only as many
// primes as its bound needs: the bit lengths of σ are read off the
// operands, not assumed from W. A PIM Mul's residues below 2³¹ have
// e = 0, and their products need only the first term, from two primes.

// primeBits is a lower bound on the bits of every convolution prime:
// nt.NTTPrimes(61, …) descends from 2⁶¹, and convPlanFor checks each
// prime exceeds 2⁶⁰. Below 2⁶¹ ntt.MulPairAddVec can fold P2's two
// products at once.
const primeBits = 60

// maxPrimes bounds the primes of one term: P1 of two 256-bit operands
// needs ⌈(513 + ⌈log₂ n⌉)/60⌉, 9 at every degree a workload runs.
const maxPrimes = 11

// A convPlan holds what the convolutions of n-coefficient operands
// share: the primes, their transforms of size ≥ 2n and the Garner
// constants of the CRT.
type convPlan struct {
	n, size int // operand length; transform size, a power of two ≥ 2n
	lg      int // ⌈log₂ n⌉: a product coefficient sums at most 2^lg terms
	tabs    []*ntt.Table
	// inv[j] = (p_0⋯p_(j−1))⁻¹ mod p_j; pmod[j][i] = p_i mod p_j, i < j.
	inv  []uint64
	pmod [][]uint64
}

var convPlans sync.Map // n → *convPlan

// convPlanFor returns the shared plan for operands of n coefficients,
// with primes enough for 256-bit ones.
func convPlanFor(n int) (*convPlan, error) {
	if v, ok := convPlans.Load(n); ok {
		return v.(*convPlan), nil
	}
	size := max(16, 1<<bits.Len(uint(2*n-1)))
	p := &convPlan{n: n, size: size, lg: bits.Len(uint(n - 1))}
	count := p.primes(p.bounds(256, 256)[0])
	if count > maxPrimes {
		return nil, fmt.Errorf("kernels: no convolution plan for n=%d", n)
	}
	primes, err := nt.NTTPrimes(61, size, count)
	if err != nil {
		return nil, fmt.Errorf("kernels: convolution primes for n=%d: %w", n, err)
	}
	for j, q := range primes {
		if q>>primeBits == 0 {
			return nil, fmt.Errorf("kernels: convolution prime %#x below 2^%d", q, primeBits)
		}
		tab, err := ntt.GetTable(q, size)
		if err != nil {
			return nil, err
		}
		p.tabs = append(p.tabs, tab)
		r, prod := tab.R, uint64(1)
		pm := make([]uint64, j)
		for i := range pm {
			pm[i] = primes[i] % q
			prod = r.Mul(prod, pm[i])
		}
		p.pmod = append(p.pmod, pm)
		p.inv = append(p.inv, r.Inv(prod))
	}
	v, _ := convPlans.LoadOrStore(n, p)
	return v.(*convPlan), nil
}

// primes is how many primes a value of below 2^b needs: their product
// must reach 2^b.
func (p *convPlan) primes(b int) int { return (b + primeBits - 1) / primeBits }

// bounds returns the bits B of the three terms of a·b for operands whose
// σ are below 2^ba and 2^bb in magnitude: each term lies in
// (−2^(B−1), 2^(B−1)). P1 = σₐ∗σ_b sums at most 2^lg products; P2 =
// eₐ∗σ_b + σₐ∗e_b twice as many, of one factor each; P3 = eₐ∗e_b at most
// n ones.
func (p *convPlan) bounds(ba, bb int) [3]int {
	return [3]int{ba + bb + p.lg + 1, max(ba, bb) + p.lg + 2, p.lg + 2}
}

// scratchWords is the scratch convolve needs at width w: four transform
// buffers and one residue vector per prime of each term, at the largest
// σ a w-limb coefficient holds.
func (p *convPlan) scratchWords(w int) int {
	vecs := 4
	for _, b := range p.bounds(32*w, 32*w) {
		vecs += p.primes(b)
	}
	return vecs * p.size
}

// convWords is the words one coefficient of a product takes in the
// convolution: its 2w+1 limbs, two to a word.
func convWords(w int) int { return w + 1 }

// maxConvWords is convWords at the widest operand convolve takes, 8 limbs.
const maxConvWords = 9

// convolve sets conv to the exact acyclic product of the n-coefficient,
// w-limb operands a and b, w ≤ 8: coefficient k, Σ_{i+j=k} a_i·b_j, below
// n·2^(64w) and so exact in 2w+1 limbs, at conv[k·cw:(k+1)·cw], cw =
// convWords(w), limb 2t in the low half of word t, for k < 2n (the last
// is zero). scratch holds p.scratchWords(w) words.
func (p *convPlan) convolve(conv, scratch []uint64, a, b []uint32, w int) {
	n, size := p.n, p.size
	ba, hasEa := sigmaBits(a, w)
	bb, hasEb := sigmaBits(b, w)
	bound := p.bounds(ba, bb)
	// The terms that can be nonzero, and the primes each needs.
	var use [3]int
	if ba > 0 && bb > 0 {
		use[0] = p.primes(bound[0])
	}
	if hasEa && bb > 0 || hasEb && ba > 0 {
		use[1] = p.primes(bound[1])
	}
	if hasEa && hasEb {
		use[2] = p.primes(bound[2])
	}

	buf := func() []uint64 {
		v := scratch[:size:size]
		scratch = scratch[size:]
		return v
	}
	sa, sb, ea, eb := buf(), buf(), buf(), buf() // σ and e, transformed
	var res [3][maxPrimes][]uint64               // term t's residues mod p_j
	for t, l := range use {
		for j := 0; j < l; j++ {
			res[t][j] = buf()
		}
	}
	for j := 0; j < max(use[0], use[1], use[2]); j++ {
		tab := p.tabs[j]
		if j < use[0] || j < use[1] {
			loadSigma(sa, a, w, tab)
			loadSigma(sb, b, w, tab)
		}
		if j < use[1] || j < use[2] {
			loadE(ea, a, w, hasEa, tab)
			loadE(eb, b, w, hasEb, tab)
		}
		if j < use[0] {
			tab.PointwiseMul(res[0][j], sa, sb)
			tab.Inverse(res[0][j])
		}
		if j < use[1] {
			ntt.MulPairAddVec(tab.R, res[1][j], ea, sb, sa, eb)
			tab.Inverse(res[1][j])
		}
		if j < use[2] {
			tab.PointwiseMul(res[2][j], ea, eb)
			tab.Inverse(res[2][j])
		}
	}

	cw := convWords(w)
	if use[1] == 0 && use[2] == 0 && use[0] <= 2 {
		// Only σₐ∗σ_b, no e set: every σ is non-negative, and so is each
		// coefficient, below 2^(B_0−1) < p_0·p_1. One-limb products of
		// residues below 2³¹ take this path.
		clear(conv[:2*n*cw])
		for k := 0; k < 2*n; k++ {
			switch use[0] {
			case 1:
				conv[k*cw] = res[0][0][k]
			case 2:
				conv[k*cw], conv[k*cw+1] = p.crt2(res[0][0][k], res[0][1][k])
			}
		}
		return
	}

	// Term t enters the CRT as X_t + 2^(B_t−1), in [0, 2^B_t), so that
	// it needs no sign test; the offsets, weighted by 2^(32w·t), come off
	// every coefficient at once as bias. The sum is taken modulo
	// 2^(64·cw), which holds the exact coefficient.
	var bias [maxConvWords]uint64
	var x [maxPrimes]uint64
	for t, l := range use {
		if l > 0 {
			p.digits(res[t][:l], 2*n, bound[t]-1)
			clear(x[:])
			x[(bound[t]-1)/64] = 1 << ((bound[t] - 1) % 64)
			addShifted(bias[:cw], x[:], 32*w*t)
		}
	}
	for i, c := 0, uint64(0); i < cw; i++ { // bias = −bias
		bias[i], c = bits.Sub64(0, bias[i], c)
	}
	for k := 0; k < 2*n; k++ {
		out := conv[k*cw : (k+1)*cw]
		copy(out, bias[:cw])
		for t, l := range use {
			if l > 0 {
				addShifted(out, x[:p.horner(x[:], res[t][:l], k)], 32*w*t)
			}
		}
	}
}

// crt2 returns the value below p_0·p_1 with residues r0 mod p_0 and r1
// mod p_1, as two words, low first.
func (p *convPlan) crt2(r0, r1 uint64) (lo, hi uint64) {
	r := p.tabs[1].R
	s := r0 // below p_0 < 2·p_1
	if s >= r.Q {
		s -= r.Q
	}
	hi, lo = bits.Mul64(r.Mul(r.Sub(r1, s), p.inv[1]), p.tabs[0].R.Q)
	var c uint64
	lo, c = bits.Add64(lo, r0, 0)
	return lo, hi + c
}

// loadSigma sets s to the transform mod tab's prime of the σ of the
// w-limb coefficients of c, zero-padded to the transform size.
func loadSigma(s []uint64, c []uint32, w int, tab *ntt.Table) {
	n := len(c) / w
	if w == 1 { // σ = v − 2³² for v ≥ 2³¹: |σ| ≤ 2³¹ is below the prime
		for i, v := range c {
			s[i] = uint64(v)
			if v>>31 != 0 {
				s[i] += tab.R.Q - 1<<32
			}
		}
	} else {
		for i := 0; i < n; i++ {
			s[i] = residue(c[i*w:(i+1)*w], tab.R)
		}
	}
	clear(s[n:])
	tab.ForwardLazy(s)
}

// loadE sets e to the transform of the e of the w-limb coefficients of
// c, zero-padded; when none is set (hasE false) that is zero.
func loadE(e []uint64, c []uint32, w int, hasE bool, tab *ntt.Table) {
	clear(e)
	if hasE {
		for i := 0; i < len(c)/w; i++ {
			e[i] = uint64(c[(i+1)*w-1] >> 31)
		}
		tab.ForwardLazy(e)
	}
}

// digits turns a term's residues res[j][k] mod p_j, k < count, into
// Garner's mixed-radix digits of X_k + 2^e in place: afterwards
// X_k + 2^e = Σ_j res[j][k]·p_0⋯p_(j−1).
func (p *convPlan) digits(res [][]uint64, count, e int) {
	for j, rj := range res {
		r := p.tabs[j].R
		off, pm, inv := r.Pow(2, uint64(e)), p.pmod[j], p.inv[j]
		for k, v := range rj[:count] {
			v = r.Add(v, off)
			if j > 0 {
				// s = digits 0…j−1 as a number, mod p_j, from the top
				// digit down; a digit is below 2⁶¹ < 2p_j.
				s := res[j-1][k]
				if s >= r.Q {
					s -= r.Q
				}
				for i := j - 2; i >= 0; i-- {
					hi, lo := bits.Mul64(s, pm[i])
					var c uint64
					lo, c = bits.Add64(lo, res[i][k], 0)
					s = r.ReduceWide(hi+c, lo)
				}
				v = r.Mul(r.Sub(v, s), inv)
			}
			rj[k] = v
		}
	}
}

// horner sets x to coefficient k's value from its Garner digits,
// d_0 + p_0·(d_1 + p_1·(d_2 + …)), and returns its length in words.
func (p *convPlan) horner(x []uint64, digits [][]uint64, k int) int {
	L := len(digits)
	x[0] = digits[L-1][k]
	m := 1
	for i := L - 2; i >= 0; i-- {
		q := p.tabs[i].R.Q
		carry := digits[i][k]
		for t := 0; t < m; t++ {
			hi, lo := bits.Mul64(x[t], q)
			var c uint64
			x[t], c = bits.Add64(lo, carry, 0)
			carry = hi + c
		}
		x[m] = carry
		m++
	}
	return m
}

// sigmaBits returns a bound on the bit length of every |σ| among the
// w-limb coefficients of c, and whether any of them has e = 1.
func sigmaBits(c []uint32, w int) (bl int, e bool) {
	if w == 1 {
		var pos, neg uint32 // the ORs of the non-negative σ and of ^v
		for _, v := range c {
			if int32(v) < 0 {
				neg |= ^v
				e = true
			} else {
				pos |= v
			}
		}
		bl = bits.Len32(pos)
		if e {
			bl = max(bl, bits.Len32(neg)+1)
		}
		return bl, e
	}
	for i := 0; i+w <= len(c); i += w {
		v := c[i : i+w]
		neg := v[w-1]>>31 != 0
		flip := -uint32(v[w-1] >> 31) // |σ| = ^v + 1 for a negative σ
		top := w - 1
		for top > 0 && v[top]^flip == 0 {
			top--
		}
		l := 32*top + bits.Len32(v[top]^flip)
		if neg {
			l++ // |σ| ≤ 2·(^v) + 1
			e = true
		}
		bl = max(bl, l)
	}
	return bl, e
}

// residue returns σ modulo r's prime for the w-limb coefficient v, by
// Horner's rule from its top significant limb.
func residue(v []uint32, r *modring.Ring) uint64 {
	w := len(v)
	flip := -uint32(v[w-1] >> 31)
	top := w - 1
	for top > 0 && v[top]^flip == 0 {
		top--
	}
	x := uint64(v[top] ^ flip) // below 2³², so below the prime
	for i := top - 1; i >= 0; i-- {
		x = r.ReduceWide(x>>32, x<<32|uint64(v[i]^flip))
	}
	if flip == 0 {
		return x
	}
	// σ = −(^v + 1).
	return r.Sub(0, r.Add(x, 1))
}

// addShifted adds x·2^shift into the words acc, modulo 2^(64·len(acc));
// shift is a multiple of 32.
func addShifted(acc, x []uint64, shift int) {
	i, s := shift/64, uint(shift%64)
	var c, prev uint64
	for _, v := range x {
		if i == len(acc) {
			return
		}
		acc[i], c = bits.Add64(acc[i], v<<s|prev>>(64-s), c)
		prev = v
		i++
	}
	if s != 0 && i < len(acc) {
		acc[i], c = bits.Add64(acc[i], prev>>(64-s), c)
		i++
	}
	for ; c != 0 && i < len(acc); i++ {
		acc[i], c = bits.Add64(acc[i], 0, c)
	}
}
