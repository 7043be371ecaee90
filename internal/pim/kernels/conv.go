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
// Each W-limb coefficient is read as the unsigned integer its limbs
// hold, and the product is recovered from only as many primes as its
// bound needs: the bit lengths of the operands are read off them, not
// assumed from W. A PIM Mul's residues below 2³¹ need at most two
// primes.

// primeBits is a lower bound on the bits of every convolution prime:
// nt.NTTPrimes(61, …) descends from 2⁶¹, and convPlanFor checks each
// prime exceeds 2⁶⁰.
const primeBits = 60

// maxPrimes bounds the primes of one product: two 256-bit operands need
// ⌈(512 + ⌈log₂ n⌉)/60⌉, 9 at every degree a workload runs.
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
	count := p.primes(256, 256)
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

// primes is how many primes the product of operands below 2^ba and
// 2^bb needs: each coefficient sums at most 2^lg products, so it is
// below 2^(ba+bb+lg), which the primes' product must reach.
func (p *convPlan) primes(ba, bb int) int {
	return (ba + bb + p.lg + primeBits - 1) / primeBits
}

// scratchWords is the scratch convolve needs at width w: two transform
// buffers and one residue vector per prime of the largest w-limb
// operands.
func (p *convPlan) scratchWords(w int) int {
	return (2 + p.primes(32*w, 32*w)) * p.size
}

// convWords is the words one coefficient of a product takes in the
// convolution: its 2w+1 limbs, two to a word.
func convWords(w int) int { return w + 1 }

// convolve sets conv to the exact acyclic product of the n-coefficient,
// w-limb operands a and b, w ≤ 8: coefficient k, Σ_{i+j=k} a_i·b_j, below
// n·2^(64w) and so exact in 2w+1 limbs, at conv[k·cw:(k+1)·cw], cw =
// convWords(w), limb 2t in the low half of word t, for k < 2n (the last
// is zero). scratch holds p.scratchWords(w) words.
func (p *convPlan) convolve(conv, scratch []uint64, a, b []uint32, w int) {
	n, size, cw := p.n, p.size, convWords(w)
	clear(conv[:2*n*cw])
	ba, bb := bitLen(a, w), bitLen(b, w)
	if ba == 0 || bb == 0 {
		return
	}
	l := p.primes(ba, bb)

	buf := func() []uint64 {
		v := scratch[:size:size]
		scratch = scratch[size:]
		return v
	}
	sa, sb := buf(), buf()
	var res [maxPrimes][]uint64 // the product's residues mod p_j
	for j := range l {
		tab := p.tabs[j]
		load(sa, a, w, tab)
		load(sb, b, w, tab)
		res[j] = buf()
		tab.PointwiseMul(res[j], sa, sb)
		tab.Inverse(res[j])
	}

	if l == 2 { // one-limb products of residues below 2³¹ take this path
		for k := 0; k < 2*n; k++ {
			conv[k*cw], conv[k*cw+1] = p.crt2(res[0][k], res[1][k])
		}
		return
	}
	p.digits(res[:l], 2*n)
	var x [maxPrimes]uint64
	for k := 0; k < 2*n; k++ {
		copy(conv[k*cw:(k+1)*cw], x[:p.horner(x[:], res[:l], k)])
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

// load sets s to the transform mod tab's prime of the w-limb
// coefficients of c, zero-padded to the transform size.
func load(s []uint64, c []uint32, w int, tab *ntt.Table) {
	n := len(c) / w
	if w == 1 { // below 2³², so below the prime
		for i, v := range c {
			s[i] = uint64(v)
		}
	} else {
		for i := 0; i < n; i++ {
			s[i] = residue(c[i*w:(i+1)*w], tab.R)
		}
	}
	clear(s[n:])
	tab.ForwardLazy(s)
}

// digits turns a product's residues res[j][k] mod p_j, k < count, into
// Garner's mixed-radix digits of X_k in place: afterwards
// X_k = Σ_j res[j][k]·p_0⋯p_(j−1). Digit 0 is the residue mod p_0.
func (p *convPlan) digits(res [][]uint64, count int) {
	for j := 1; j < len(res); j++ {
		r, rj := p.tabs[j].R, res[j]
		pm, inv := p.pmod[j], p.inv[j]
		for k, v := range rj[:count] {
			// s = digits 0…j−1 as a number, mod p_j, from the top digit
			// down; a digit is below 2⁶¹ < 2p_j.
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
			rj[k] = r.Mul(r.Sub(v, s), inv)
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

// bitLen returns the bit length of the largest of the w-limb
// coefficients of c, from the OR of each limb position.
func bitLen(c []uint32, w int) int {
	var or [8]uint32
	if w == 1 {
		for _, v := range c {
			or[0] |= v
		}
	} else {
		for i := 0; i+w <= len(c); i += w {
			for j, v := range c[i : i+w] {
				or[j] |= v
			}
		}
	}
	for top := w - 1; top >= 0; top-- {
		if or[top] != 0 {
			return 32*top + bits.Len32(or[top])
		}
	}
	return 0
}

// residue returns the w-limb coefficient v modulo r's prime, by Horner's
// rule from its top nonzero limb.
func residue(v []uint32, r *modring.Ring) uint64 {
	top := len(v) - 1
	for top > 0 && v[top] == 0 {
		top--
	}
	x := uint64(v[top]) // below 2³², so below the prime
	for i := top - 1; i >= 0; i-- {
		x = r.ReduceWide(x>>32, x<<32|uint64(v[i]))
	}
	return x
}
