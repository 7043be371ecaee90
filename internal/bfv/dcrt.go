package bfv

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/dcrt"
	"repro/internal/poly"
)

// Double-CRT glue: every host-side ring multiplication in the scheme
// (encryption, key generation, decryption phases, plaintext products,
// tensor products and key switching) routes through a shared
// dcrt.Context instead of the O(n²) limb schoolbook. The schoolbook path
// survives in two roles: it is the PIM-simulator cost model (any
// Evaluator with a Meter attached charges the exact schoolbook
// instruction stream), and it is the correctness oracle the double-CRT
// backend is differentially tested against (NewSchoolbookEvaluator).

// dcrtFor returns the process-shared double-CRT context for par. The
// basis is sized for the largest exact integer the evaluation produces:
// tensor-product coefficients reach n·q²/4 on centered lifts (and ring
// products n·q² on canonical ones), key-switching accumulators reach
// D·n·q·2^base. Construction cannot fail for any parameter set
// NewParameters accepts with q below ~2^3500 (basis primes run out only
// then), so failure panics rather than threading errors through
// infallible APIs.
func dcrtFor(par *Parameters) *dcrt.Context {
	par.dcrtOnce.Do(func() {
		logN := bits.TrailingZeros(uint(par.N))
		qb := par.Q.Bits()
		tensor := 2*qb + logN + 1
		keySwitch := qb + int(par.RelinBaseBits) + bits.Len(uint(par.RelinDigits())) + logN + 1
		bound := tensor
		if keySwitch > bound {
			bound = keySwitch
		}
		ctx, err := dcrt.GetContext(par.Q, par.N, bound+1)
		if err != nil {
			panic(fmt.Sprintf("bfv: double-CRT context for %v: %v", par, err))
		}
		par.dcrtCtx = ctx
		// Key-switching accumulators are bounded by keySwitch bits — far
		// below the tensor bound the basis is sized for — so their digit
		// transforms and accumulation run on a basis prefix and extend to
		// the remaining channels in the residue domain (ExtendResidues).
		par.dcrtSubK = ctx.SubBasisFor(keySwitch + 1)
	})
	if par.dcrtCtx == nil {
		// A recovered first-build panic leaves the Once spent; keep the
		// descriptive failure instead of a nil dereference downstream.
		panic(fmt.Sprintf("bfv: double-CRT context for %v unavailable", par))
	}
	return par.dcrtCtx
}

// mulRq multiplies two R_q polynomials on the double-CRT backend.
func mulRq(par *Parameters, a, b *poly.Poly) *poly.Poly {
	return dcrtFor(par).MulRq(a, b)
}

// keyForms caches the double-CRT NTT forms of a key-switching key's
// polynomials, so every Relinearize/ApplyGalois pays only the digit-side
// transforms. The fused 128-bit accumulation kernels multiply the raw key
// slots (no Shoup companions needed — the single Barrett fold per slot
// replaces the per-digit Shoup reductions). Keys are immutable after
// generation/deserialization, and the cache is keyed to the context that
// built it (a key is only ever used with one parameter set).
type keyForms struct {
	once   sync.Once
	k0, k1 []*dcrt.Poly
}

func (kf *keyForms) get(ctx *dcrt.Context, k0, k1 []*poly.Poly) (f0, f1 []*dcrt.Poly) {
	kf.once.Do(func() {
		kf.k0 = make([]*dcrt.Poly, len(k0))
		kf.k1 = make([]*dcrt.Poly, len(k1))
		for i := range k0 {
			kf.k0[i] = ctx.ToRNS(k0[i])
			kf.k1[i] = ctx.ToRNS(k1[i])
		}
	})
	return kf.k0, kf.k1
}

// keySwitchAcc folds Σᵢ digitᵢ·keyᵢ for both key components entirely in
// the NTT domain: one forward transform per digit, one inverse transform
// per component — the double-CRT key-switching inner loop. Digits arrive
// already in double-CRT form (from Context.DigitsToRNS, which decomposes
// with limb shifts and leaves the transforms lazily reduced), are
// consumed and returned to the context's scratch pool, and the whole
// digit sum folds in one fused pass per component (128-bit lazy
// accumulation, one Barrett reduction per slot). The accumulators leave
// through the word-sized fast base conversion — no big.Int and no
// steady-state allocation on the path.
func keySwitchAcc(ctx *dcrt.Context, digits []*dcrt.Poly, k0, k1 []*dcrt.Poly) (s0, s1 *poly.Poly) {
	acc0 := ctx.GetScratch()
	acc1 := ctx.GetScratch()
	defer ctx.PutScratch(acc0)
	defer ctx.PutScratch(acc1)
	ctx.MulPairAllNTT(acc0, acc1, k0, k1, digits)
	for _, dR := range digits {
		ctx.PutScratch(dR)
	}
	return ctx.FromRNS(acc0), ctx.FromRNS(acc1)
}

// keySwitchAccResidues runs the key switch on the sub-basis prefix of
// `limbs` channels — digits arrive with only those channels populated —
// and returns the accumulators as full-basis residue-domain elements:
// inverse transforms over the prefix, then an exact base extension into
// the remaining channels (the accumulator magnitude fits the prefix, see
// dcrtFor). Pooled; the caller owns them. Digits are consumed.
func keySwitchAccResidues(ctx *dcrt.Context, digits []*dcrt.Poly, k0, k1 []*dcrt.Poly, limbs int) (acc0, acc1 *dcrt.Poly) {
	acc0 = ctx.GetScratch()
	acc1 = ctx.GetScratch()
	ctx.MulPairLimbsNTT(acc0, acc1, k0, k1, digits, limbs)
	for _, dR := range digits {
		ctx.PutScratch(dR)
	}
	ctx.IntoResiduesLazyLimbs(acc0, limbs)
	ctx.IntoResiduesLazyLimbs(acc1, limbs)
	ctx.ExtendResidues(acc0, limbs)
	ctx.ExtendResidues(acc1, limbs)
	return acc0, acc1
}

// relinDigits returns ct polynomial p decomposed into double-CRT digit
// form, capped at the number of key digits actually present.
func relinDigits(ctx *dcrt.Context, par *Parameters, p *poly.Poly, keyLen int) []*dcrt.Poly {
	return ctx.DigitsToRNS(p, par.RelinBaseBits, min(par.RelinDigits(), keyLen))
}

// galoisKeySwitchAcc accumulates Σᵢ τ_g(digitᵢ)·keyᵢ for both key
// components into acc0/acc1 (NTT domain, extended basis) — the Galois
// key-switching inner loop under the decompose-then-permute convention.
// The automorphism is the slot gather idx (dcrt.GaloisNTTIndices), fused
// into the accumulation so permuted digits are never materialized, the
// whole digit sum folds in one 128-bit fused pass per component, and
// digits are NOT consumed: a hoisted rotation reuses one decomposition
// across many Galois elements, so ownership stays with the caller.
func galoisKeySwitchAcc(ctx *dcrt.Context, acc0, acc1 *dcrt.Poly, digits []*dcrt.Poly, idx []uint32, k0, k1 []*dcrt.Poly) {
	ctx.GaloisAccAllNTT(acc0, acc1, k0, k1, digits, idx)
}

// keySwitchAccLegacy is the big.Int key-switching path: big.Int digit
// decomposition, per-digit ToRNS, and big.Int CRT recombination on the
// way out — the only path for moduli outside dcrt.Context.RNSNative
// (even q, 63/64-bit q, a factor shared with a basis prime). Digits enter
// through the centered decomposition: for plain relinearization digits
// (small canonical values) centering is the identity, and for permuted
// Galois digits it maps the mod-q-negated coefficients q−v to the small
// integers −v, keeping the exact accumulator inside the basis bound.
func keySwitchAccLegacy(ctx *dcrt.Context, digits []*poly.Poly, k0, k1 []*dcrt.Poly) (s0, s1 *poly.Poly) {
	acc0 := ctx.NewPoly()
	acc1 := ctx.NewPoly()
	for i, d := range digits {
		if i >= len(k0) {
			break
		}
		dR := ctx.ToRNSCentered(d)
		ctx.MulAddNTT(acc0, k0[i], dR)
		ctx.MulAddNTT(acc1, k1[i], dR)
	}
	return ctx.FromRNSRecombine(acc0), ctx.FromRNSRecombine(acc1)
}
