package bfv

import (
	"errors"
	"math/big"
	"sync"

	"repro/internal/limb32"
	"repro/internal/poly"
)

// Evaluator performs homomorphic operations on ciphertexts. It is the
// functional counterpart of the paper's PIM kernels: EvalAdd is
// coefficient-wise polynomial addition, EvalMul is the tensor product
// built from polynomial multiplications and additions (§3).
//
// Multiplicative operations run on one of two backends. The default is
// the double-CRT (RNS + NTT) backend — O(n log n) per limb, the
// optimization the paper's SEAL baseline owes its multiplication lead to
// and defers to future work for PIM (§3, §4.1). Pointing Meter at a
// limb32.Counts tally switches the evaluator to the metered O(n²)
// schoolbook path, which charges every limb operation: that path is the PIM-simulator cost
// model and stays bit-identical to the double-CRT results, so the two
// backends differentially validate each other.
type Evaluator struct {
	params     *Parameters
	rlk        *RelinKey
	schoolbook bool
	Meter      limb32.Meter

	scratch sync.Pool // *evScratch, big.Int workspace for scaleRound
}

// evScratch is the reusable big.Int workspace of the schoolbook rescale
// (and of ScaleRoundCoeffs, the PIM server's host rescale), pooled so
// concurrent evaluations on one Evaluator stop thrashing the GC with
// per-coefficient allocations.
type evScratch struct {
	num, m, tBig *big.Int
}

func (ev *Evaluator) getScratch() *evScratch {
	if s, ok := ev.scratch.Get().(*evScratch); ok {
		return s
	}
	return &evScratch{
		num:  new(big.Int),
		m:    new(big.Int),
		tBig: new(big.Int).SetUint64(ev.params.T),
	}
}

func (ev *Evaluator) putScratch(s *evScratch) { ev.scratch.Put(s) }

// NewEvaluator returns an evaluator on the double-CRT backend; rlk may be
// nil if Relinearize and Mul (which relinearizes by default) are not
// used.
func NewEvaluator(params *Parameters, rlk *RelinKey) *Evaluator {
	return &Evaluator{params: params, rlk: rlk}
}

// NewSchoolbookEvaluator returns an evaluator pinned to the O(n²)
// schoolbook backend even without a Meter — the correctness oracle the
// double-CRT backend is differentially tested against.
func NewSchoolbookEvaluator(params *Parameters, rlk *RelinKey) *Evaluator {
	return &Evaluator{params: params, rlk: rlk, schoolbook: true}
}

// useDCRT reports whether this evaluator runs the double-CRT backend —
// the fully RNS-native path: word-sized scale-and-round, limb-shift digit
// decomposition, and fast base conversion out of the extended basis. A
// metered evaluator always runs the schoolbook path, whose instruction
// stream is the quantity the meter exists to count.
func (ev *Evaluator) useDCRT() bool { return ev.Meter == nil && !ev.schoolbook }

// Add returns ct0 + ct1 (component-wise in R_q). Operands of different
// degrees are supported; the missing components are treated as zero.
func (ev *Evaluator) Add(ct0, ct1 *Ciphertext) *Ciphertext {
	par := ev.params
	n := len(ct0.Polys)
	if len(ct1.Polys) > n {
		n = len(ct1.Polys)
	}
	out := &Ciphertext{Polys: make([]*poly.Poly, n)}
	for i := 0; i < n; i++ {
		switch {
		case i >= len(ct0.Polys):
			out.Polys[i] = ct1.Polys[i].Clone()
		case i >= len(ct1.Polys):
			out.Polys[i] = ct0.Polys[i].Clone()
		default:
			p := poly.NewPoly(par.N, par.Q.W)
			poly.Add(p, ct0.Polys[i], ct1.Polys[i], par.Q, ev.Meter)
			out.Polys[i] = p
		}
	}
	return out
}

// Neg returns -ct.
func (ev *Evaluator) Neg(ct *Ciphertext) *Ciphertext {
	par := ev.params
	out := &Ciphertext{Polys: make([]*poly.Poly, len(ct.Polys))}
	for i, p := range ct.Polys {
		np := poly.NewPoly(par.N, par.Q.W)
		poly.Neg(np, p, par.Q, ev.Meter)
		out.Polys[i] = np
	}
	return out
}

// AddPlain returns ct + Δ·m for plaintext m.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	par := ev.params
	out := ct.Clone()
	poly.Add(out.Polys[0], out.Polys[0], deltaPoly(par, pt), par.Q, ev.Meter)
	return out
}

// MulPlain returns ct · m for plaintext m (each component multiplied by
// the plaintext polynomial, no Δ scaling — standard BFV plaintext mul).
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	par := ev.params
	coeffs := make([]*big.Int, par.N)
	for i := range coeffs {
		coeffs[i] = new(big.Int).SetUint64(pt.Coeffs[i] % par.T)
	}
	mp := poly.FromBigCoeffs(coeffs, par.Q)
	out := &Ciphertext{Polys: make([]*poly.Poly, len(ct.Polys))}
	if ev.useDCRT() {
		ctx := par.dcrtCtx
		mpR := ctx.ToRNS(mp)
		for i, p := range ct.Polys {
			pR := ctx.ToRNS(p)
			ctx.MulNTT(pR, pR, mpR)
			out.Polys[i] = ctx.FromRNS(pR)
		}
		return out
	}
	for i, p := range ct.Polys {
		np := poly.NewPoly(par.N, par.Q.W)
		poly.MulNegacyclic(np, p, mp, par.Q, ev.Meter)
		out.Polys[i] = np
	}
	return out
}

// mulZ multiplies two centered-lift coefficient vectors negacyclically
// over the integers (no modular reduction): the BFV tensor product must be
// computed over Z before t/q rescaling. The result values share one
// backing slice — a single allocation instead of n.
func mulZ(a, b []*big.Int) []*big.Int {
	n := len(a)
	vals := make([]big.Int, n)
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = &vals[i]
	}
	mulZAcc(out, a, b)
	return out
}

// mulZAcc accumulates the negacyclic integer product of a and b into out.
func mulZAcc(out []*big.Int, a, b []*big.Int) {
	n := len(a)
	t := new(big.Int)
	for i := 0; i < n; i++ {
		if a[i].Sign() == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if b[j].Sign() == 0 {
				continue
			}
			t.Mul(a[i], b[j])
			if i+j < n {
				out[i+j].Add(out[i+j], t)
			} else {
				out[i+j-n].Sub(out[i+j-n], t)
			}
		}
	}
}

// scaleRound maps each coefficient c to round(t·c/q) mod q and packs the
// result into a polynomial, reusing pooled big.Int scratch so the
// schoolbook (PIM cost model) rescale allocates only the result
// polynomial.
func (ev *Evaluator) scaleRound(coeffs []*big.Int) *poly.Poly {
	par := ev.params
	s := ev.getScratch()
	defer ev.putScratch(s)
	out := poly.NewPoly(len(coeffs), par.Q.W)
	for i, c := range coeffs {
		s.num.Mul(c, s.tBig)
		divRoundInto(s.m, s.num, par.Q.Half, par.Q.QBig)
		s.m.Mod(s.m, par.Q.QBig)
		out.Coeff(i).SetBig(s.m)
	}
	return out
}

// MulNoRelin returns the degree-2 tensor product of two degree-1
// ciphertexts:
//
//	d0 = ⌊t·c0·c0'/q⌉, d1 = ⌊t·(c0·c1' + c1·c0')/q⌉, d2 = ⌊t·c1·c1'/q⌉
func (ev *Evaluator) MulNoRelin(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	if ct0.Degree() != 1 || ct1.Degree() != 1 {
		return nil, errors.New("bfv: MulNoRelin requires degree-1 operands")
	}
	par := ev.params
	if ev.useDCRT() {
		// Tensor product in the extended basis: the centered NTT forms of
		// the operands come from the per-ciphertext cache (chained and
		// squared operands pay no repeat transforms), the three tensor
		// components are pointwise products, and rescaling runs RNS-native
		// — word-sized base conversion and exact division, no big.Int.
		ctx := par.dcrtCtx
		ra0 := ct0.rnsNTT(ctx, 0)
		ra1 := ct0.rnsNTT(ctx, 1)
		rb0 := ct1.rnsNTT(ctx, 0)
		rb1 := ct1.rnsNTT(ctx, 1)

		rd0 := ctx.GetScratch()
		defer ctx.PutScratch(rd0)
		ctx.MulNTT(rd0, ra0, rb0)
		rd1 := ctx.GetScratch()
		defer ctx.PutScratch(rd1)
		ctx.MulNTT(rd1, ra0, rb1)
		ctx.MulAddNTT(rd1, ra1, rb0)
		rd2 := ctx.GetScratch()
		defer ctx.PutScratch(rd2)
		ctx.MulNTT(rd2, ra1, rb1)

		sr := ctx.ScaleRounder(par.T)
		return &Ciphertext{Polys: []*poly.Poly{
			sr.ScaleRound(rd0), sr.ScaleRound(rd1), sr.ScaleRound(rd2),
		}}, nil
	}
	a0 := ct0.Polys[0].ToCenteredCoeffs(par.Q)
	a1 := ct0.Polys[1].ToCenteredCoeffs(par.Q)
	b0 := ct1.Polys[0].ToCenteredCoeffs(par.Q)
	b1 := ct1.Polys[1].ToCenteredCoeffs(par.Q)

	d0 := mulZ(a0, b0)
	d2 := mulZ(a1, b1)
	d1 := mulZ(a0, b1)
	for i, c := range mulZ(a1, b0) {
		d1[i].Add(d1[i], c)
	}

	// Charge the meter for the four underlying R_q polynomial products the
	// kernel performs (the big.Int path is a host-side exactness detour).
	if ev.Meter != nil {
		chargePolyMul(ev.Meter, par, 4)
	}

	return &Ciphertext{Polys: []*poly.Poly{
		ev.scaleRound(d0), ev.scaleRound(d1), ev.scaleRound(d2),
	}}, nil
}

// Relinearize reduces a degree-2 ciphertext back to degree 1 using the
// relinearization key: c2 is decomposed in base 2^BaseBits and folded into
// (c0, c1) via the evaluation keys.
func (ev *Evaluator) Relinearize(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Degree() == 1 {
		return ct.Clone(), nil
	}
	if ct.Degree() != 2 {
		return nil, errors.New("bfv: Relinearize supports degree-2 ciphertexts")
	}
	if ev.rlk == nil {
		return nil, errors.New("bfv: evaluator has no relinearization key")
	}
	par := ev.params
	c0 := ct.Polys[0].Clone()
	c1 := ct.Polys[1].Clone()

	if ev.useDCRT() {
		ctx := par.dcrtCtx
		k0, k1 := ev.rlk.forms.get(ctx, ev.rlk.K0, ev.rlk.K1)
		// Digit decomposition by limb shifts, accumulation in the NTT
		// domain, fast base conversion out — no big.Int on the path.
		s0, s1 := keySwitchAcc(ctx, relinDigits(ctx, par, ct.Polys[2], len(k0)), k0, k1)
		poly.Add(c0, c0, s0, par.Q, nil)
		poly.Add(c1, c1, s1, par.Q, nil)
		return &Ciphertext{Polys: []*poly.Poly{c0, c1}}, nil
	}

	digits := decomposePoly(ct.Polys[2], par)
	tmp := poly.NewPoly(par.N, par.Q.W)
	for i, d := range digits {
		if i >= len(ev.rlk.K0) {
			break
		}
		poly.MulNegacyclic(tmp, ev.rlk.K0[i], d, par.Q, ev.Meter)
		poly.Add(c0, c0, tmp, par.Q, ev.Meter)
		poly.MulNegacyclic(tmp, ev.rlk.K1[i], d, par.Q, ev.Meter)
		poly.Add(c1, c1, tmp, par.Q, ev.Meter)
	}
	return &Ciphertext{Polys: []*poly.Poly{c0, c1}}, nil
}

// Mul returns the relinearized product of two degree-1 ciphertexts. On
// the double-CRT backend the tensor, rescale and key switch fuse through
// the deferred-product pipeline (see mul_ntt.go): the rescaled components
// and the key-switching accumulators sum as exact integers in the
// extended basis and leave through a single base conversion each — one
// conversion and one packing pass fewer per component than rescaling and
// key-switching separately, with bit-identical results.
func (ev *Evaluator) Mul(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	if ev.CanDeferMuls() && ct0.Degree() == 1 && ct1.Degree() == 1 {
		ctx := ev.params.dcrtCtx
		res0, res1 := ev.mulDeferred(ct0, ct1)
		defer ctx.PutScratch(res0)
		defer ctx.PutScratch(res1)
		return &Ciphertext{Polys: []*poly.Poly{
			ctx.FromResidues(res0), ctx.FromResidues(res1),
		}}, nil
	}
	d2, err := ev.MulNoRelin(ct0, ct1)
	if err != nil {
		return nil, err
	}
	return ev.Relinearize(d2)
}

// ScaleRoundCoeffs maps integer coefficients c to ⌊t·c/q⌉ mod q — the
// BFV tensor rescaling step, exported for backends that compute the
// tensor products on an accelerator and finish the scaling on the host.
func ScaleRoundCoeffs(params *Parameters, coeffs []*big.Int) *poly.Poly {
	ev := Evaluator{params: params}
	return ev.scaleRound(coeffs)
}

// DecomposeForRelin splits a ciphertext polynomial into its base-
// 2^RelinBaseBits digit polynomials, exported for accelerator backends.
func DecomposeForRelin(p *poly.Poly, params *Parameters) []*poly.Poly {
	return decomposePoly(p, params)
}

// decomposePoly splits p into base-2^RelinBaseBits digit polynomials:
// p = Σ 2^{i·base}·digit_i with digit coefficients < 2^base.
func decomposePoly(p *poly.Poly, par *Parameters) []*poly.Poly {
	digits := par.RelinDigits()
	base := par.RelinBaseBits
	out := make([]*poly.Poly, digits)
	coeffs := p.ToBigCoeffs()
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), base), big.NewInt(1))
	work := make([]*big.Int, len(coeffs))
	for i, c := range coeffs {
		work[i] = new(big.Int).Set(c)
	}
	for d := 0; d < digits; d++ {
		dc := make([]*big.Int, len(coeffs))
		for i := range work {
			dc[i] = new(big.Int).And(work[i], mask)
			work[i].Rsh(work[i], base)
		}
		out[d] = poly.FromBigCoeffs(dc, par.Q)
	}
	return out
}

// chargePolyMul charges the meter with the instruction stream of `count`
// schoolbook negacyclic polynomial multiplications in R_q, matching what
// poly.MulNegacyclic would charge (n² coefficient multiplies plus the
// final per-coefficient reductions). Used where the host computes via
// big.Int for exactness but the device would run the limb kernel.
func chargePolyMul(m limb32.Meter, par *Parameters, count int) {
	n, w := par.N, par.Q.W
	pairs := n * n * count
	m.Tick(limb32.OpMul32, pairs*limb32.MulCost(w))
	m.Tick(limb32.OpLoad, pairs*4*w)
	m.Tick(limb32.OpAddC, pairs*2*w)
	m.Tick(limb32.OpStore, pairs*2*w)
	m.Tick(limb32.OpLoop, pairs)
}
