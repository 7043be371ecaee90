package bfv

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/dcrt"
	"repro/internal/limb32"
	"repro/internal/poly"
)

// Galois automorphisms: τ_g(m(X)) = m(X^g) for odd g, the primitive
// behind slot rotations in batched BFV. The paper lists rotation among
// the homomorphic operations (§2) and leaves operations beyond add/mul
// as future work (§6); this file implements them for the library.

// GaloisKey enables key switching from s(X^g) back to s after applying
// the automorphism to a ciphertext.
type GaloisKey struct {
	G        uint64
	BaseBits uint
	K0, K1   []*poly.Poly

	forms keyForms // lazily-built double-CRT forms (see dcrt.go)
}

// applyGaloisPoly maps coefficient i to position i·g mod 2N with the
// negacyclic sign rule (X^N ≡ −1).
func applyGaloisPoly(p *poly.Poly, g uint64, mod *poly.Modulus, m limb32.Meter) *poly.Poly {
	n := p.N
	out := poly.NewPoly(n, p.W)
	for i := 0; i < n; i++ {
		j := int((uint64(i) * g) % uint64(2*n))
		src := p.Coeff(i)
		if j < n {
			out.Coeff(j).Set(src)
			m.Tick(limb32.OpMove, p.W)
		} else {
			limb32.NegMod(out.Coeff(j-n), src, mod.Q, m)
		}
	}
	return out
}

// GenGaloisKey derives the key-switching key for the automorphism X→X^g.
// g must be odd (even g is not an automorphism of the 2N-th cyclotomic).
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, g uint64) (*GaloisKey, error) {
	if g%2 == 0 {
		return nil, fmt.Errorf("bfv: Galois element %d must be odd", g)
	}
	par := kg.params
	sG := applyGaloisPoly(sk.S, g, par.Q, nil)

	digits := par.RelinDigits()
	gk := &GaloisKey{
		G:        g,
		BaseBits: par.RelinBaseBits,
		K0:       make([]*poly.Poly, digits),
		K1:       make([]*poly.Poly, digits),
	}
	wPow := big.NewInt(1)
	base := new(big.Int).Lsh(big.NewInt(1), par.RelinBaseBits)
	for i := 0; i < digits; i++ {
		a := uniformPoly(kg.src, par.N, par.Q)
		e := gaussianPoly(kg.src, par.N, par.Q)

		k0 := mulRq(par, a, sk.S)
		poly.Add(k0, k0, e, par.Q, nil)
		poly.Neg(k0, k0, par.Q, nil)

		scaled := poly.NewPoly(par.N, par.Q.W)
		wq := new(big.Int).Mod(wPow, par.Q.QBig)
		poly.MulScalar(scaled, sG, limb32.FromBig(wq, par.Q.W), par.Q, nil)
		poly.Add(k0, k0, scaled, par.Q, nil)

		gk.K0[i] = k0
		gk.K1[i] = a
		wPow.Mul(wPow, base)
	}
	return gk, nil
}

// ApplyGalois maps a degree-1 ciphertext of m(X) to a degree-1 ciphertext
// of m(X^g), using the matching Galois key for key switching.
//
// Every backend uses the decompose-then-permute convention: c1 is digit-
// decomposed first and the automorphism τ_g is applied to the digits
// (valid because τ_g is a ring automorphism: Σ wⁱ·τ(dᵢ) = τ(c1)). The
// digits of c1 are therefore independent of g — the hoisting property
// that lets one decomposition serve many Galois elements (see hoist.go)
// — and on the double-CRT backend τ_g acts on a decomposed digit as a
// pure NTT-slot gather. Per-rotation ApplyGalois and hoisted rotation
// share the digit set, so their outputs are bit-identical, and the
// schoolbook oracle and PIM server use the same convention.
func (ev *Evaluator) ApplyGalois(ct *Ciphertext, gk *GaloisKey) (*Ciphertext, error) {
	if ct.Degree() != 1 {
		return nil, errors.New("bfv: ApplyGalois requires a degree-1 ciphertext")
	}
	if gk == nil {
		return nil, errors.New("bfv: nil Galois key")
	}
	par := ev.params
	c0 := applyGaloisPoly(ct.Polys[0], gk.G, par.Q, ev.Meter)

	if ev.useDCRT() {
		ctx := par.dcrtCtx
		digits := relinDigits(ctx, par, ct.Polys[1], len(gk.K0))
		s0, outC1 := galoisKeySwitch(ctx, digits, gk)
		for _, d := range digits {
			ctx.PutScratch(d)
		}
		poly.Add(c0, c0, s0, par.Q, nil)
		return &Ciphertext{Polys: []*poly.Poly{c0, outC1}}, nil
	}
	digitsP := permuteDigits(decomposePoly(ct.Polys[1], par), gk.G, par, ev.Meter)
	outC1 := poly.NewPoly(par.N, par.Q.W)
	tmp := poly.NewPoly(par.N, par.Q.W)
	for i, d := range digitsP {
		if i >= len(gk.K0) {
			break
		}
		poly.MulNegacyclic(tmp, gk.K0[i], d, par.Q, ev.Meter)
		poly.Add(c0, c0, tmp, par.Q, ev.Meter)
		poly.MulNegacyclic(tmp, gk.K1[i], d, par.Q, ev.Meter)
		poly.Add(outC1, outC1, tmp, par.Q, ev.Meter)
	}
	return &Ciphertext{Polys: []*poly.Poly{c0, outC1}}, nil
}

// galoisKeySwitch runs the double-CRT Galois key switch for one element
// over an existing digit decomposition of c1 (not consumed): the slot
// gather realizes τ_g on each digit, the products accumulate in the NTT
// domain against the key's cached NTT forms, and both components leave
// through the fast base conversion.
func galoisKeySwitch(ctx *dcrt.Context, digits []*dcrt.Poly, gk *GaloisKey) (s0, s1 *poly.Poly) {
	k0, k1 := gk.forms.get(ctx, gk.K0, gk.K1)
	idx := dcrt.GaloisNTTIndices(ctx.N, gk.G)
	acc0 := ctx.GetScratch()
	acc1 := ctx.GetScratch()
	defer ctx.PutScratch(acc0)
	defer ctx.PutScratch(acc1)
	acc0.Zero()
	acc1.Zero()
	galoisKeySwitchAcc(ctx, acc0, acc1, digits, idx, k0, k1)
	return ctx.FromRNS(acc0), ctx.FromRNS(acc1)
}

// permuteDigits applies τ_g to each digit polynomial — the coefficient-
// domain form of the decompose-then-permute convention, used by the
// schoolbook (metered) path. Negated coefficients become q−v, congruent
// mod q to the −v the double-CRT slot gather produces, so all backends
// agree mod q. The metered path charges one permutation per digit: that
// is the data movement this convention really costs a hoisting-capable
// kernel.
func permuteDigits(digits []*poly.Poly, g uint64, par *Parameters, m limb32.Meter) []*poly.Poly {
	out := make([]*poly.Poly, len(digits))
	for i, d := range digits {
		out[i] = applyGaloisPoly(d, g, par.Q, m)
	}
	return out
}

// PermuteGaloisPoly applies the coefficient permutation τ_g (with the
// negacyclic sign rule) to a single R_q polynomial — exported for
// accelerator backends that permute key-switching digits themselves
// under the decompose-then-permute convention.
func PermuteGaloisPoly(p *poly.Poly, g uint64, params *Parameters) *poly.Poly {
	return applyGaloisPoly(p, g, params.Q, nil)
}
