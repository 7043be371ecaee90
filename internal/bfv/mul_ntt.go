package bfv

import (
	"errors"
	"math/bits"

	"repro/internal/dcrt"
)

// Deferred multiplication (see deferred.go): MulNTT leaves a
// relinearized product's components as residue-domain accumulators,
// which add in the RNS domain and chain into further multiplications
// without packing coefficients between levels.

// mulMagBits bounds the exact integer magnitude of a deferred product's
// components: the rescaled tensor part |⌊t·d/q⌉| ≤ t·n·q/4 + 1 plus the
// key-switching accumulator (digits · n · 2^base · q), conservatively
// rounded up.
func mulMagBits(par *Parameters) int {
	tensor := bits.Len64(par.T) + par.Q.Bits() + bits.Len(uint(par.N))
	return max(tensor, keySwitchBits(par)+1) + 2
}

// mulOperand is an input to the tensor product: a *Ciphertext (degree 1)
// or a residue-domain *Deferred — the latter feeds its centered NTT
// forms straight into the next tensor product, so chained
// multiplications never pack coefficients between levels.
type mulOperand interface {
	// tensorOperand returns the centered-mod-q NTT form of component i
	// (0 or 1) for the tensor product, cached on the operand.
	tensorOperand(ctx *dcrt.Context, i int) *dcrt.Poly
	// acquireOperand/releaseOperand bracket an in-flight multiplication
	// reading the operand's forms, deferring a concurrent Release.
	acquireOperand()
	releaseOperand()
}

// operandOf maps a value to its tensor-product input: a deferred product
// chains, every other form enters through its materialized ciphertext.
func operandOf(v Value) mulOperand {
	if d, ok := v.(*Deferred); ok && d.dom == residueDomain {
		return d
	}
	return v.Materialize()
}

func (ct *Ciphertext) tensorOperand(ctx *dcrt.Context, i int) *dcrt.Poly {
	return ct.rnsNTT(ctx, i)
}

func (ct *Ciphertext) acquireOperand() {}
func (ct *Ciphertext) releaseOperand() {}

// checkMul refuses what no product can serve: a ciphertext operand of
// degree other than 1, or an evaluator without a relinearization key.
// The basis is sized so every product defers (see attachDCRT), so these
// are the only refusals.
func (ev *Evaluator) checkMul(a, b mulOperand) error {
	for _, op := range []mulOperand{a, b} {
		if ct, ok := op.(*Ciphertext); ok && ct.Degree() != 1 {
			return errors.New("bfv: Mul requires degree-1 operands")
		}
	}
	if ev.rlk == nil {
		return errNoRelinKey
	}
	return nil
}

// MulNTT returns the relinearized product of two degree-1 operands in
// deferred NTT-resident form: the tensor products, rescaling and
// key-switching accumulation run as usual, but the two output base
// conversions are postponed until Materialize, deferred products Add in
// the RNS domain, and a deferred product operand chains its centered NTT
// forms straight into the next tensor — a Mul→Mul→Mul chain packs
// coefficients only where a digit decomposition genuinely needs them.
// Materialize's result is bit-identical to Evaluator.Mul.
func (ev *Evaluator) MulNTT(av, bv Value) (*Deferred, error) {
	a, b := operandOf(av), operandOf(bv)
	if err := ev.checkMul(a, b); err != nil {
		return nil, err
	}
	a.acquireOperand()
	defer a.releaseOperand()
	if b != a {
		b.acquireOperand()
		defer b.releaseOperand()
	}
	res0, res1 := ev.mulDeferred(a, b)
	return newDeferred(ev.params, ev.params.dcrtCtx, ev.Alloc, residueDomain, res0, res1, mulMagBits(ev.params)), nil
}

// mulDeferred runs tensor + rescale + relinearization entirely in the
// extended basis and returns the two exact-integer component accumulators
// in the residue domain (pooled; the caller owns them). Requires
// checkMul.
func (ev *Evaluator) mulDeferred(a, b mulOperand) (res0, res1 *dcrt.Poly) {
	par := ev.params
	ctx := par.dcrtCtx
	ra0 := a.tensorOperand(ctx, 0)
	ra1 := a.tensorOperand(ctx, 1)
	// Repeat multiplicands (chained products against one operand, shared
	// dot-product weights) serve their forms with cached Shoup companions
	// — the tensor passes then run Shoup multiplications instead of
	// Barrett reductions. Single-use operands return nil companions.
	var rb0, rb1, rb0s, rb1s *dcrt.Poly
	if bct, ok := b.(*Ciphertext); ok {
		rb0, rb0s = bct.rnsNTTShoup(ctx, 0)
		rb1, rb1s = bct.rnsNTTShoup(ctx, 1)
	} else {
		rb0 = b.tensorOperand(ctx, 0)
		rb1 = b.tensorOperand(ctx, 1)
	}

	sr := ctx.ScaleRounder(par.T)

	// d2 = ⌊t·c1·c1'/q⌉ feeds the digit decomposition straight from its
	// base-conversion words — the rescaled polynomial is never packed —
	// and the key switch runs on the sub-basis prefix that holds its
	// accumulator exactly, extending back to the full basis in the
	// residue domain.
	rd0 := ctx.GetScratch()
	if rb1s != nil {
		ctx.MulShoupLazyNTT(rd0, ra1, rb1, rb1s)
	} else {
		ctx.MulNTT(rd0, ra1, rb1)
	}
	k0, k1 := ev.rlk.nttForms(ctx)
	subK := par.dcrtSubK
	digits := sr.ScaleRoundDigits(rd0, par.RelinBaseBits, par.RelinDigits(), subK)
	acc0, acc1 := keySwitchAccResidues(ctx, digits, k0, k1, subK)

	// d0 and d1 rescale in place to exact-integer residues (the scratch
	// transfers to the handle), with the key-switching accumulators
	// folded in during the division sweep itself — no mod-q reduction,
	// no packing, no separate addition pass.
	rd1 := ctx.GetScratch()
	if rb0s != nil && rb1s != nil {
		ctx.MulShoupLazyNTT(rd0, ra0, rb0, rb0s)
		ctx.MulPairAddShoupLazyNTT(rd1, ra0, rb1, rb1s, ra1, rb0, rb0s)
	} else {
		ctx.MulNTT(rd0, ra0, rb0)
		ctx.MulPairAddNTT(rd1, ra0, rb1, ra1, rb0)
	}
	res0 = sr.ScaleRoundResiduesAddInPlace(rd0, acc0)
	res1 = sr.ScaleRoundResiduesAddInPlace(rd1, acc1)
	ctx.PutScratch(acc0)
	ctx.PutScratch(acc1)
	return res0, res1
}

// MulManyNTT is MulMany with deferred outputs: each product stays
// NTT-resident until a consumer forces coefficients, so Mul-then-Sum
// pipelines (dot products, variance sums) pay one base-conversion pair
// for the whole reduction instead of one per product. Materializing every
// output reproduces MulMany bit for bit.
func (be *BatchEvaluator) MulManyNTT(as, bs []Value) ([]*Deferred, error) {
	if len(as) != len(bs) {
		return nil, errors.New("bfv: MulManyNTT length mismatch")
	}
	out := make([]*Deferred, len(as))
	err := be.forEach(len(as), func(i int) error {
		p, err := be.ev.MulNTT(as[i], bs[i])
		out[i] = p
		return err
	})
	if err != nil {
		releaseOutputs(out)
		return nil, err
	}
	return out, nil
}
