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
// dcrt.Context instead of the O(n²) limb schoolbook. The schoolbook
// arithmetic lives only in the Oracle (oracle.go), the correctness
// oracle the double-CRT Evaluator is differentially tested against.

// attachDCRT builds (or fetches from the process-wide cache) the
// double-CRT context for par. The basis is sized for the largest exact
// integer the evaluation produces: tensor-product coefficients reach
// n·q²/4 on centered lifts (and ring products n·q² on canonical ones),
// key-switching accumulators reach D·n·q·2^base, and a deferred
// product's components need mulMagBits + 1 — the bound that binds only
// for t near q/4, and makes every product defer. It fails for moduli the
// word-sized base conversion cannot serve (dcrt.NewContext), which
// NewParameters refuses.
func attachDCRT(par *Parameters) error {
	logN := bits.TrailingZeros(uint(par.N))
	qb := par.Q.Bits()
	tensor := 2*qb + logN + 1
	keySwitch := qb + int(par.RelinBaseBits) + bits.Len(uint(par.RelinDigits())) + logN + 1
	ctx, err := dcrt.GetContext(par.Q, par.N, max(tensor, keySwitch, mulMagBits(par)+1)+1)
	if err != nil {
		return fmt.Errorf("bfv: double-CRT context for %v: %w", par, err)
	}
	par.dcrtCtx = ctx
	// Key-switching accumulators are bounded by keySwitch bits — far below
	// the tensor bound the basis is sized for — so their digit transforms
	// and accumulation run on a basis prefix and extend to the remaining
	// channels in the residue domain (ExtendResidues).
	par.dcrtSubK = ctx.SubBasisFor(keySwitch + 1)
	return nil
}

// mulRq multiplies two R_q polynomials on the double-CRT backend.
func mulRq(par *Parameters, a, b *poly.Poly) *poly.Poly {
	return par.dcrtCtx.MulRq(a, b)
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

// keySwitchAccResidues runs the key switch on the sub-basis prefix of
// `limbs` channels — digits arrive with only those channels populated —
// and returns the accumulators as full-basis residue-domain elements:
// inverse transforms over the prefix, then an exact base extension into
// the remaining channels (the accumulator magnitude fits the prefix, see
// attachDCRT). Pooled; the caller owns them. Digits are consumed.
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
