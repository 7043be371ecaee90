package bfv

import (
	"errors"
	"math/big"

	"repro/internal/poly"
)

// Oracle is the schoolbook BFV evaluator, the correctness oracle every
// backend is held to bit for bit. It works in math/big: each ring product
// is one Kronecker product, mod q (poly.MulNegacyclic) or, for the tensor,
// over Z (poly.MulNegacyclicZ). It shares no ring product with the
// double-CRT Evaluator or the PIM kernels, only the coefficient-domain
// Add, Neg and AddPlain. Its methods have the PIM server's shape — one
// ciphertext at a time, an error each — so one hebfv adapter serves both.
// Alloc works as on Evaluator.
type Oracle struct {
	coeffOps
	rlk *RelinKey
}

// NewOracle returns the schoolbook evaluator; rlk may be nil if Mul is
// not used.
func NewOracle(params *Parameters, rlk *RelinKey) *Oracle {
	return &Oracle{coeffOps: coeffOps{params: params}, rlk: rlk}
}

// Add returns ct0 + ct1 (see Evaluator.Add).
func (o *Oracle) Add(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	return o.coeffOps.Add(ct0, ct1), nil
}

// Neg returns -ct.
func (o *Oracle) Neg(ct *Ciphertext) (*Ciphertext, error) {
	return o.coeffOps.Neg(ct), nil
}

// AddPlain returns ct + Δ·m for plaintext m.
func (o *Oracle) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	return o.coeffOps.AddPlain(ct, pt), nil
}

// Sum returns Σ cts by folding Add in slice order — the definition
// Evaluator.Sum's one-pass lazy reduction must reproduce. A single
// operand is copied, never aliased.
func (o *Oracle) Sum(cts []*Ciphertext) (*Ciphertext, error) {
	if len(cts) == 0 {
		return nil, errors.New("bfv: Sum of no ciphertexts")
	}
	acc := o.copyOf(cts[0])
	for _, ct := range cts[1:] {
		next := o.coeffOps.Add(acc, ct)
		acc.Release()
		acc = next
	}
	return acc, nil
}

// MulPlain returns ct · m for plaintext m (no Δ scaling).
func (o *Oracle) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	par := o.params
	mp := scaledPoly(par, pt, 1, 0, nil) // m < t < q: each coefficient is its own residue
	out := o.newCiphertext(len(ct.Polys))
	for i, p := range ct.Polys {
		poly.MulNegacyclic(out.Polys[i], p, mp, par.Q)
	}
	return out, nil
}

// Mul returns the relinearized product of two degree-1 ciphertexts: the
// tensor over Z, rescaled by t/q, then relinearized.
func (o *Oracle) Mul(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	d2, err := o.mulNoRelin(ct0, ct1)
	if err != nil {
		return nil, err
	}
	defer d2.Release()
	return o.relinearize(d2)
}

// mulNoRelin returns the degree-2 tensor product of two degree-1
// ciphertexts:
//
//	d0 = ⌊t·c0·c0'/q⌉, d1 = ⌊t·(c0·c1' + c1·c0')/q⌉, d2 = ⌊t·c1·c1'/q⌉
func (o *Oracle) mulNoRelin(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	if ct0.Degree() != 1 || ct1.Degree() != 1 {
		return nil, errors.New("bfv: Mul requires degree-1 operands")
	}
	par := o.params
	a0 := ct0.Polys[0].ToCenteredCoeffs(par.Q)
	a1 := ct0.Polys[1].ToCenteredCoeffs(par.Q)
	b0 := ct1.Polys[0].ToCenteredCoeffs(par.Q)
	b1 := ct1.Polys[1].ToCenteredCoeffs(par.Q)

	d0 := poly.MulNegacyclicZ(a0, b0)
	d2 := poly.MulNegacyclicZ(a1, b1)
	d1 := poly.MulNegacyclicZ(a0, b1)
	for i, c := range poly.MulNegacyclicZ(a1, b0) {
		d1[i].Add(d1[i], c)
	}

	out := o.newCiphertext(3)
	for i, d := range [][]*big.Int{d0, d1, d2} {
		scaleRound(out.Polys[i], d, par)
	}
	return out, nil
}

// relinearize reduces a degree-2 ciphertext to degree 1: c2's base-
// 2^BaseBits digits, multiplied into the relinearization key by
// Kronecker products, fold into (c0, c1).
func (o *Oracle) relinearize(ct *Ciphertext) (*Ciphertext, error) {
	if o.rlk == nil {
		return nil, errNoRelinKey
	}
	par := o.params
	out := o.newCiphertext(2)
	c0, c1 := out.Polys[0], out.Polys[1]
	copy(c0.C, ct.Polys[0].C)
	copy(c1.C, ct.Polys[1].C)
	o.rlk.switchSchoolbook(c0, c1, DecomposeForRelin(ct.Polys[2], par), par)
	return out, nil
}

// ApplyGalois maps a degree-1 ciphertext of m(X) to one of m(X^g) under
// the decompose-then-permute convention (see Evaluator.ApplyGalois): c1's
// digits are permuted in the coefficient domain and switched by
// Kronecker products.
func (o *Oracle) ApplyGalois(ct *Ciphertext, gk *GaloisKey) (*Ciphertext, error) {
	if ct.Degree() != 1 {
		return nil, errors.New("bfv: ApplyGalois requires a degree-1 ciphertext")
	}
	if gk == nil {
		return nil, errors.New("bfv: nil Galois key")
	}
	par := o.params
	out := o.newCiphertext(2)
	c0, c1 := out.Polys[0], out.Polys[1]
	applyGaloisPoly(c0, ct.Polys[0], gk.G, par.Q)
	clear(c1.C)
	// Negated digit coefficients become q−v, congruent to the −v of the
	// double-CRT slot gather.
	digits := DecomposeForRelin(ct.Polys[1], par)
	for i, d := range digits {
		digits[i] = galoisPoly(d, gk.G, par.Q)
	}
	gk.switchSchoolbook(c0, c1, digits, par)
	return out, nil
}

// scaleRound maps each coefficient c to round(t·c/q) mod q and packs the
// result into out, reusing one big.Int workspace across coefficients.
func scaleRound(out *poly.Poly, coeffs []*big.Int, par *Parameters) {
	num, m, t := new(big.Int), new(big.Int), new(big.Int).SetUint64(par.T)
	for i, c := range coeffs {
		num.Mul(c, t)
		divRoundInto(m, num, par.Q.Half, par.Q.QBig)
		m.Mod(m, par.Q.QBig)
		out.Coeff(i).SetBig(m)
	}
}

// switchSchoolbook adds Σᵢ dᵢ·(k0ᵢ, k1ᵢ) into (c0, c1) by Kronecker
// products: the double-CRT key switch's oracle.
func (k *switchKey) switchSchoolbook(c0, c1 *poly.Poly, digits []*poly.Poly, par *Parameters) {
	tmp := poly.NewPoly(par.N, par.Q.W)
	for i, d := range digits {
		poly.MulNegacyclic(tmp, k.K0[i], d, par.Q)
		poly.Add(c0, c0, tmp, par.Q)
		poly.MulNegacyclic(tmp, k.K1[i], d, par.Q)
		poly.Add(c1, c1, tmp, par.Q)
	}
}

// The PIM server's host helpers: it computes the ring products on the
// simulated device, and decomposes and permutes key-switching digits
// here.

// DecomposeForRelin splits p into base-2^RelinBaseBits digit
// polynomials: p = Σ 2^{i·base}·digit_i with digit coefficients <
// 2^base. A digit is a bit field of the coefficient's limbs (base ≤ 32,
// so it spans at most two).
func DecomposeForRelin(p *poly.Poly, par *Parameters) []*poly.Poly {
	w, base := par.Q.W, par.RelinBaseBits
	mask := uint64(1)<<base - 1
	out := make([]*poly.Poly, par.RelinDigits())
	for d := range out {
		out[d] = poly.NewPoly(p.N, w)
		limb, sh := d*int(base)/32, uint(d*int(base)%32)
		for i := 0; i < p.N; i++ {
			c := p.C[i*w : (i+1)*w]
			v := uint64(c[limb]) >> sh
			if limb+1 < w {
				v |= uint64(c[limb+1]) << (32 - sh)
			}
			out[d].C[i*w] = uint32(v & mask)
		}
	}
	return out
}

// PermuteGaloisPoly applies the coefficient permutation τ_g (with the
// negacyclic sign rule) to a single R_q polynomial — exported for
// accelerator backends that permute key-switching digits themselves
// under the decompose-then-permute convention.
func PermuteGaloisPoly(p *poly.Poly, g uint64, params *Parameters) *poly.Poly {
	return galoisPoly(p, g, params.Q)
}
