package rns

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"repro/internal/limb32"
	"repro/internal/nt"
	"repro/internal/poly"
)

// maxRounderPrimes bounds a Rounder's basis: nine primes below 2³¹
// cover n·q² for every q below 2¹²⁸ at n ≤ 2¹⁵.
const maxRounderPrimes = 12

// A Rounder carries the coefficients of a BFV tensor — a negacyclic
// product of two centred mod-q polynomials of degree n, or the sum of two
// such products, so below n·q²/2 in magnitude — as residues modulo k
// primes below 2³¹, one 32-bit limb each (the PIM product kernel's
// narrowest width), and maps them back to ⌊t·X/q⌉ mod q exactly with
// word arithmetic. The primes' product P exceeds n·q², so every such X
// is the centred representative of its residues.
//
// ScaleRound reconstructs each coefficient as Garner's mixed-radix digits
// u_j, X = Σ u_j·P_j with P_j = p_0⋯p_(j−1), and takes |X| from them (its
// sign is a digit-wise comparison with ⌊P/2⌋, and P − X is the digits'
// complement plus one). With t·P_j = A_j·q + B_j, B_j < q, precomputed,
//
//	⌊(t·|X| + ⌊q/2⌋)/q⌋ = Σ u_j·A_j + ⌊(Σ u_j·B_j + ⌊q/2⌋)/q⌋,
//
// whose last term is one division of a value below 2⁶⁴·q, and whose sum
// is taken mod q by another. q is odd, so t·X/q never lies halfway, and
// rounding |X| and restoring the sign is the schoolbook oracle's round
// half away from zero.
type Rounder struct {
	basis *Basis
	n, w  int // degree; q's limbs
	q     [2]uint64
	half  [2]uint64 // ⌊q/2⌋
	// q normalised for division when it takes two words: shifted left by
	// shift so that its top bit is set.
	qn    [2]uint64
	shift uint

	qRes  []uint64    // q mod p_j
	pmod  [][]shoup   // pmod[j][i] = p_i mod p_j, i < j
	inv   []shoup     // P_j⁻¹ mod p_j
	halfP []uint64    // mixed-radix digits of ⌊P/2⌋
	a, b  [][2]uint64 // A_j mod q and B_j
}

// shoup is a constant factor mod p_j with its Shoup companion.
type shoup struct{ w, s uint64 }

// NewRounder returns the Rounder for the tensors of degree-n
// polynomials mod q and plaintext modulus t: the largest primes below
// 2³¹ whose product exceeds n·q².
func NewRounder(mod *poly.Modulus, n int, t uint64) (*Rounder, error) {
	if mod.W > 4 {
		return nil, fmt.Errorf("rns: a %d-bit q is wider than the rounder's two words", mod.QBig.BitLen())
	}
	if mod.QBig.Bit(0) == 0 {
		return nil, errors.New("rns: an even q could leave t·X/q halfway between two integers")
	}
	q := mod.QBig
	bound := new(big.Int).Mul(q, q)
	bound.Mul(bound, big.NewInt(int64(n)))
	var primes []uint64
	prod := big.NewInt(1)
	for p := uint64(1)<<31 - 1; prod.Cmp(bound) <= 0; p -= 2 {
		if len(primes) == maxRounderPrimes {
			return nil, fmt.Errorf("rns: more than %d primes below 2^31 for n=%d and a %d-bit q", maxRounderPrimes, n, q.BitLen())
		}
		if nt.IsPrime(p) {
			primes = append(primes, p)
			prod.Mul(prod, new(big.Int).SetUint64(p))
		}
	}
	basis, err := NewBasis(primes)
	if err != nil {
		return nil, err
	}
	r := &Rounder{basis: basis, n: n, w: mod.W, q: words(q), half: words(mod.Half)}
	if r.q[1] != 0 {
		r.shift = uint(bits.LeadingZeros64(r.q[1]))
		r.qn = words(new(big.Int).Lsh(q, r.shift))
	}
	tb := new(big.Int).SetUint64(t)
	pj := big.NewInt(1) // P_j
	for j, p := range primes {
		ring := basis.Rings[j]
		constant := func(w uint64) shoup { return shoup{w, ring.ShoupConst(w)} }
		pm := make([]shoup, j)
		for i := range pm {
			pm[i] = constant(primes[i] % p)
		}
		r.pmod = append(r.pmod, pm)
		r.inv = append(r.inv, constant(ring.Inv(new(big.Int).Mod(pj, new(big.Int).SetUint64(p)).Uint64())))
		r.qRes = append(r.qRes, new(big.Int).Mod(q, new(big.Int).SetUint64(p)).Uint64())
		a, b := new(big.Int).QuoRem(new(big.Int).Mul(tb, pj), q, new(big.Int))
		r.a = append(r.a, words(a.Mod(a, q)))
		r.b = append(r.b, words(b))
		pj.Mul(pj, new(big.Int).SetUint64(p))
	}
	h := new(big.Int).Rsh(prod, 1)
	for _, p := range primes {
		d := new(big.Int)
		h.QuoRem(h, new(big.Int).SetUint64(p), d)
		r.halfP = append(r.halfP, d.Uint64())
	}
	return r, nil
}

// words returns v < 2¹²⁸ as two words, low first.
func words(v *big.Int) [2]uint64 {
	lo := new(big.Int).And(v, new(big.Int).SetUint64(math.MaxUint64))
	return [2]uint64{lo.Uint64(), new(big.Int).Rsh(v, 64).Uint64()}
}

// Moduli returns the primes as one-limb moduli, in the order of the
// residue vectors Residues returns.
func (r *Rounder) Moduli() []limb32.Nat {
	out := make([]limb32.Nat, r.basis.K())
	for j, p := range r.basis.Primes {
		out[j] = limb32.Nat{uint32(p)}
	}
	return out
}

// Residues returns the residues of p's centred coefficients — x for
// x ≤ ⌊q/2⌋, else x − q — as k vectors of n words, one per prime.
func (r *Rounder) Residues(p *poly.Poly) []uint32 {
	n := r.n
	out := make([]uint32, r.basis.K()*n)
	for i := 0; i < n; i++ {
		lo, hi := coeffWords(p.Coeff(i))
		neg := hi > r.half[1] || hi == r.half[1] && lo > r.half[0]
		for j, ring := range r.basis.Rings {
			x := lo
			if hi != 0 || lo >= ring.Q {
				x = ring.ReduceWide(ring.ReduceWide(0, hi), lo)
			}
			if neg {
				x = ring.Sub(x, r.qRes[j])
			}
			out[j*n+i] = uint32(x)
		}
	}
	return out
}

// ScaleRound returns ⌊t·X/q⌉ mod q for the integers X whose residues
// are the sums of terms, each laid out as Residues returns them.
func (r *Rounder) ScaleRound(terms ...[]uint32) *poly.Poly {
	n, k, primes := r.n, r.basis.K(), r.basis.Primes
	out := poly.NewPoly(n, r.w)
	var u [maxRounderPrimes]uint64 // X's mixed-radix digits
	for i := 0; i < n; i++ {
		for j, ring := range r.basis.Rings {
			// u_j = (x − (u_0 + p_0·(u_1 + … + p_(j−2)·u_(j−1)))) / P_j mod p_j,
			// on lazy values: x and s stay below 4·p_j (p_j > 2³⁰), and
			// a Shoup product is below 2·p_j.
			p := ring.Q
			var x, s uint64
			for _, t := range terms {
				x += uint64(t[j*n+i])
			}
			for l := j - 1; l >= 0; l-- {
				c := r.pmod[j][l]
				s = ring.MulShoupLazy(s, c.w, c.s) + u[l]
			}
			if u[j] = ring.MulShoupLazy(x+4*p-s, r.inv[j].w, r.inv[j].s); u[j] >= p {
				u[j] -= p
			}
		}
		neg := false
		for j := k - 1; j >= 0; j-- {
			if u[j] != r.halfP[j] {
				neg = u[j] > r.halfP[j]
				break
			}
		}
		if neg { // |X| = P − X: P − 1 − X has digits p_j − 1 − u_j
			c := uint64(1)
			for j, p := range primes {
				u[j] = p - 1 - u[j] + c
				c = 0
				if u[j] == p {
					u[j], c = 0, 1
				}
			}
		}
		sa := [3]uint64{}
		sb := [3]uint64{r.half[0], r.half[1]}
		for j := 0; j < k; j++ {
			mulAdd(&sa, u[j], r.a[j])
			mulAdd(&sb, u[j], r.b[j])
		}
		f, _, _ := r.divide(sb)
		var c uint64
		sa[0], c = bits.Add64(sa[0], f, 0)
		sa[1], c = bits.Add64(sa[1], 0, c)
		sa[2] += c
		_, lo, hi := r.divide(sa)
		if neg && lo|hi != 0 {
			var b uint64
			lo, b = bits.Sub64(r.q[0], lo, 0)
			hi, _ = bits.Sub64(r.q[1], hi, b)
		}
		v := [4]uint32{uint32(lo), uint32(lo >> 32), uint32(hi), uint32(hi >> 32)}
		copy(out.Coeff(i), v[:])
	}
	return out
}

// coeffWords returns a coefficient of at most four limbs as two words.
func coeffWords(c []uint32) (lo, hi uint64) {
	var v [4]uint32
	copy(v[:], c)
	return uint64(v[0]) | uint64(v[1])<<32, uint64(v[2]) | uint64(v[3])<<32
}

// mulAdd adds u·c into the three-word acc.
func mulAdd(acc *[3]uint64, u uint64, c [2]uint64) {
	h0, l0 := bits.Mul64(u, c[0])
	h1, l1 := bits.Mul64(u, c[1])
	var k uint64
	acc[0], k = bits.Add64(acc[0], l0, 0)
	acc[1], k = bits.Add64(acc[1], h0, k)
	acc[2] += h1 + k
	acc[1], k = bits.Add64(acc[1], l1, 0)
	acc[2] += k
}

// divide returns the quotient and remainder (two words) of x < 2⁶⁴·q by
// q. A two-word q takes Knuth's estimate from x's top words over q's
// normalised top word, at most two above the quotient (TAOCP vol. 2,
// 4.3.1, Theorem B), and adds q back while the remainder is negative.
func (r *Rounder) divide(x [3]uint64) (quo, lo, hi uint64) {
	if r.q[1] == 0 {
		quo, lo = bits.Div64(x[1], x[0], r.q[0])
		return quo, lo, 0
	}
	s, d := r.shift, r.qn
	n2 := x[2]<<s | x[1]>>(64-s)
	n1 := x[1]<<s | x[0]>>(64-s)
	n0 := x[0] << s
	quo = math.MaxUint64
	if n2 < d[1] {
		quo, _ = bits.Div64(n2, n1, d[1])
	}
	ph, pl := bits.Mul64(quo, d[0])
	th, tl := bits.Mul64(quo, d[1])
	m1, c := bits.Add64(ph, tl, 0)
	m2 := th + c
	n0, c = bits.Sub64(n0, pl, 0)
	n1, c = bits.Sub64(n1, m1, c)
	n2 -= m2 + c
	for int64(n2) < 0 { // the remainder lies in (−2·q, q)·2^shift
		quo--
		n0, c = bits.Add64(n0, d[0], 0)
		n1, c = bits.Add64(n1, d[1], c)
		n2 += c
	}
	return quo, n0>>s | n1<<(64-s), n1 >> s
}
