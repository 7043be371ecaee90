package bfv

import (
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
// — and τ_g acts on a decomposed digit as a pure NTT-slot gather.
// ApplyGalois hoists for its one element, so it is bit-identical to
// ApplyGaloisHoisted by construction; the Oracle and the PIM server use
// the same convention.
func (ev *Evaluator) ApplyGalois(ct *Ciphertext, gk *GaloisKey) (*Ciphertext, error) {
	h, err := ev.Hoist(ct)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	return ev.ApplyGaloisHoisted(h, gk)
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
