package bfv

import (
	"errors"
	"fmt"

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
	G uint64
	switchKey
}

// applyGaloisPoly writes to out (every coefficient) the image of p under
// τ_g: coefficient i moves to position i·g mod 2N with the negacyclic
// sign rule (X^N ≡ −1).
func applyGaloisPoly(out, p *poly.Poly, g uint64, mod *poly.Modulus) {
	n := p.N
	for i := 0; i < n; i++ {
		j := int((uint64(i) * g) % uint64(2*n))
		src := p.Coeff(i)
		if j < n {
			out.Coeff(j).Set(src)
		} else {
			limb32.NegMod(out.Coeff(j-n), src, mod.Q, nil)
		}
	}
}

// galoisPoly returns τ_g(p) in a fresh polynomial.
func galoisPoly(p *poly.Poly, g uint64, mod *poly.Modulus) *poly.Poly {
	out := poly.NewPoly(p.N, p.W)
	applyGaloisPoly(out, p, g, mod)
	return out
}

// GenGaloisKey derives the key-switching key for the automorphism X→X^g.
// g must be odd (even g is not an automorphism of the 2N-th cyclotomic).
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, g uint64) (*GaloisKey, error) {
	if g%2 == 0 {
		return nil, fmt.Errorf("bfv: Galois element %d must be odd", g)
	}
	gk := &GaloisKey{G: g}
	kg.genSwitchKey(&gk.switchKey, sk, galoisPoly(sk.S, g, kg.params.Q))
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
	out := ev.newCiphertext(2)
	c0, c1 := out.Polys[0], out.Polys[1]
	applyGaloisPoly(c0, ct.Polys[0], gk.G, par.Q)

	if ev.useDCRT() {
		ctx := par.dcrtCtx
		digits := relinDigits(ctx, par, ct.Polys[1])
		ev.galoisKeySwitch(ctx, c0, c1, digits, gk)
		for _, d := range digits {
			ctx.PutScratch(d)
		}
		return out, nil
	}
	digits := permuteDigits(decomposePoly(ct.Polys[1], par), gk.G, par)
	clear(c1.C)
	gk.switchSchoolbook(c0, c1, digits, par)
	return out, nil
}

// galoisKeySwitch runs the double-CRT Galois key switch for one element
// over an existing digit decomposition of c1 (not consumed): the slot
// gather realizes τ_g on each digit, the products accumulate in the NTT
// domain against the key's cached NTT forms, and both components leave
// through the fast base conversion — the first added onto c0, the
// second written to c1.
func (ev *Evaluator) galoisKeySwitch(ctx *dcrt.Context, c0, c1 *poly.Poly, digits []*dcrt.Poly, gk *GaloisKey) {
	acc0 := ctx.GetScratch()
	acc1 := ctx.GetScratch()
	defer ctx.PutScratch(acc0)
	defer ctx.PutScratch(acc1)
	acc0.Zero()
	acc1.Zero()
	gk.switchAcc(ctx, acc0, acc1, digits, dcrt.GaloisNTTIndices(ctx.N, gk.G))
	s0 := ev.newPoly()
	defer ev.putPoly(s0)
	ctx.FromRNSInto(s0, acc0)
	poly.Add(c0, c0, s0, ev.params.Q)
	ctx.FromRNSInto(c1, acc1)
}

// switchAcc accumulates Σᵢ τ_g(digitᵢ)·(k0ᵢ, k1ᵢ) into acc0/acc1 (NTT
// domain, extended basis) — the Galois key switch under the
// decompose-then-permute convention. τ_g is the slot gather idx
// (dcrt.GaloisNTTIndices), fused into the accumulation so permuted digits
// are never materialized, the whole digit sum folds in one 128-bit fused
// pass per component, and digits are NOT consumed: a hoisted rotation
// reuses one decomposition across many Galois elements, so ownership
// stays with the caller.
func (gk *GaloisKey) switchAcc(ctx *dcrt.Context, acc0, acc1 *dcrt.Poly, digits []*dcrt.Poly, idx []uint32) {
	k0, k1 := gk.nttForms(ctx)
	ctx.GaloisAccAllNTT(acc0, acc1, k0, k1, digits, idx)
}

// permuteDigits applies τ_g to each digit polynomial — the coefficient-
// domain form of the decompose-then-permute convention, used by the
// schoolbook path. Negated coefficients become q−v, congruent mod q to
// the −v the double-CRT slot gather produces, so all backends agree
// mod q.
func permuteDigits(digits []*poly.Poly, g uint64, par *Parameters) []*poly.Poly {
	out := make([]*poly.Poly, len(digits))
	for i, d := range digits {
		out[i] = galoisPoly(d, g, par.Q)
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
