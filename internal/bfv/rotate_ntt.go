package bfv

import (
	"errors"

	"repro/internal/dcrt"
)

// Deferred rotation (see deferred.go): the per-rotation cost of a
// hoisted ApplyGalois is dominated by the two base conversions that turn
// the key-switching accumulators back into coefficient-domain
// polynomials — the step that caps RotateMany at ~1.4× over serial
// rotation even though the digit decomposition is shared.
// ApplyGaloisHoistedNTT defers them: the output stays as NTT-domain
// accumulators until a consumer forces coefficients, and
// rotate-then-aggregate pipelines pay base conversions only for the
// ciphertexts they keep.

// rotatedMagBits bounds the exact integer magnitude of a rotation
// output's components: the key-switching accumulator (digits · n ·
// 2^base · q) plus the permuted c0 (≤ q/2), conservatively rounded up.
func rotatedMagBits(par *Parameters) int {
	return keySwitchBits(par) + 2
}

// ApplyGaloisHoistedNTT is ApplyGaloisHoisted returning the rotation in
// deferred NTT form: the slot permutation of c0 and the key-switching
// accumulation run as usual, but the two output base conversions are
// postponed until Materialize. Materialize's result is bit-identical to
// ApplyGaloisHoisted.
func (ev *Evaluator) ApplyGaloisHoistedNTT(h *Hoisted, gk *GaloisKey) (*Deferred, error) {
	if gk == nil {
		return nil, errors.New("bfv: nil Galois key")
	}
	par := ev.params
	ctx := h.ctx
	digits := h.snapshot(par)
	idx := dcrt.GaloisNTTIndices(ctx.N, gk.G)
	acc0 := ctx.GetScratch()
	acc1 := ctx.GetScratch()
	// acc0 starts as τ_g(c0) — a pure NTT-slot gather of the ciphertext's
	// cached centered form — so the key-switching contributions accumulate
	// straight onto it and the whole component defers as one value.
	ctx.PermuteNTT(acc0, h.ct.rnsNTT(ctx, 0), idx)
	acc1.Zero()
	gk.switchAcc(ctx, acc0, acc1, digits, idx)
	return newDeferred(par, ctx, ev.Alloc, nttDomain, acc0, acc1, rotatedMagBits(par)), nil
}

// RotateManyNTT is RotateMany with deferred outputs: one hoisted digit
// decomposition serves all k Galois elements and no output pays its base
// conversions until materialized. Materializing every output reproduces
// RotateMany bit for bit; consumers that only aggregate (Add) or discard
// outputs skip the conversions entirely.
func (be *BatchEvaluator) RotateManyNTT(ct *Ciphertext, gks []*GaloisKey) ([]*Deferred, error) {
	h, err := be.ev.Hoist(ct)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	out := make([]*Deferred, len(gks))
	err = be.forEach(len(gks), func(i int) error {
		r, err := be.ev.ApplyGaloisHoistedNTT(h, gks[i])
		out[i] = r
		return err
	})
	if err != nil {
		releaseOutputs(out)
		return nil, err
	}
	return out, nil
}
