package bfv

import (
	"errors"
	"math/big"
	"sync"

	"repro/internal/dcrt"
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
// and defers to future work for PIM (§3, §4.1). NewSchoolbookEvaluator
// pins the O(n²) schoolbook path instead, which stays bit-identical to
// the double-CRT results, so the two backends differentially validate
// each other.
//
// Setting Alloc makes the evaluator draw the coefficient backings of
// every ciphertext it returns — directly, or through a deferred value's
// Materialize — from that allocator, and those of its coefficient-domain
// temporaries, which go back before the operation returns. An output's
// Release returns its backings; nil means the heap.
type Evaluator struct {
	params     *Parameters
	rlk        *RelinKey
	schoolbook bool
	Alloc      BackingAllocator // set before first use

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
// schoolbook backend — the correctness oracle the double-CRT backend is
// differentially tested against.
func NewSchoolbookEvaluator(params *Parameters, rlk *RelinKey) *Evaluator {
	return &Evaluator{params: params, rlk: rlk, schoolbook: true}
}

// useDCRT reports whether this evaluator runs the double-CRT backend —
// the fully RNS-native path: word-sized scale-and-round, limb-shift digit
// decomposition, and fast base conversion out of the extended basis.
func (ev *Evaluator) useDCRT() bool { return !ev.schoolbook }

// newPoly returns a polynomial drawn from ev.Alloc (see newPolyFrom):
// its contents are undefined unless Alloc is nil.
func (ev *Evaluator) newPoly() *poly.Poly {
	return newPolyFrom(ev.Alloc, ev.params.N, ev.params.Q.W)
}

// putPoly returns a temporary drawn by newPoly.
func (ev *Evaluator) putPoly(p *poly.Poly) {
	if ev.Alloc != nil {
		ev.Alloc.Put(p.C)
	}
}

// newCiphertext returns an output of k components drawn by newPoly.
func (ev *Evaluator) newCiphertext(k int) *Ciphertext {
	return newCiphertextFrom(ev.Alloc, ev.params, k)
}

// copyOf returns a copy of ct in components drawn by newPoly.
func (ev *Evaluator) copyOf(ct *Ciphertext) *Ciphertext {
	out := ev.newCiphertext(len(ct.Polys))
	for i, p := range ct.Polys {
		copy(out.Polys[i].C, p.C)
	}
	return out
}

// Add returns ct0 + ct1 (component-wise in R_q). Operands of different
// degrees are supported; the missing components are treated as zero.
func (ev *Evaluator) Add(ct0, ct1 *Ciphertext) *Ciphertext {
	par := ev.params
	out := ev.newCiphertext(max(len(ct0.Polys), len(ct1.Polys)))
	for i, p := range out.Polys {
		switch {
		case i >= len(ct0.Polys):
			copy(p.C, ct1.Polys[i].C)
		case i >= len(ct1.Polys):
			copy(p.C, ct0.Polys[i].C)
		default:
			poly.Add(p, ct0.Polys[i], ct1.Polys[i], par.Q)
		}
	}
	return out
}

// Sum returns Σ cts, a fresh ciphertext that never aliases an input (a
// single operand is copied). Components missing from lower-degree
// operands count as zero. On the double-CRT backend it allocates only
// the output and sums each (component, poly.SumBlock-coefficient chunk)
// as one task on the worker pool, reducing every coefficient once
// (poly.SumRange). The schoolbook evaluator, the oracle, folds Add in
// slice order. Addition of residues mod q does not depend on order or on
// when it reduces, so both give the same bits.
func (ev *Evaluator) Sum(cts []*Ciphertext) *Ciphertext {
	if len(cts) == 0 {
		panic("bfv: Sum of no ciphertexts")
	}
	if len(cts) == 1 {
		return ev.copyOf(cts[0])
	}
	if !ev.useDCRT() {
		acc := ev.Add(cts[0], cts[1])
		for _, ct := range cts[2:] {
			next := ev.Add(acc, ct)
			acc.Release()
			acc = next
		}
		return acc
	}
	par := ev.params
	var terms [][]*poly.Poly // terms[c] holds every operand's component c
	for _, ct := range cts {
		for c, p := range ct.Polys {
			if c == len(terms) {
				terms = append(terms, make([]*poly.Poly, 0, len(cts)))
			}
			terms[c] = append(terms[c], p)
		}
	}
	out := ev.newCiphertext(len(terms))
	chunks := (par.N + poly.SumBlock - 1) / poly.SumBlock
	dcrt.Parallel(len(terms)*chunks, func(i int) {
		c, lo := i/chunks, i%chunks*poly.SumBlock
		poly.SumRange(out.Polys[c], terms[c], lo, min(lo+poly.SumBlock, par.N), par.Q)
	})
	return out
}

// Neg returns -ct.
func (ev *Evaluator) Neg(ct *Ciphertext) *Ciphertext {
	out := ev.newCiphertext(len(ct.Polys))
	for i, p := range ct.Polys {
		poly.Neg(out.Polys[i], p, ev.params.Q)
	}
	return out
}

// AddPlain returns ct + Δ·m for plaintext m.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	par := ev.params
	out := ev.copyOf(ct)
	poly.Add(out.Polys[0], out.Polys[0], deltaPoly(par, pt, nil), par.Q)
	return out
}

// MulPlain returns ct · m for plaintext m (each component multiplied by
// the plaintext polynomial, no Δ scaling — standard BFV plaintext mul).
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	par := ev.params
	mp := scaledPoly(par, pt, 1, 0, nil) // m < t < q: each coefficient is its own residue
	out := ev.newCiphertext(len(ct.Polys))
	if ev.useDCRT() {
		ctx := par.dcrtCtx
		mpR := ctx.ToRNS(mp)
		defer ctx.PutScratch(mpR)
		for i, p := range ct.Polys {
			pR := ctx.ToRNS(p)
			ctx.MulNTT(pR, pR, mpR)
			ctx.FromRNSInto(out.Polys[i], pR)
			ctx.PutScratch(pR)
		}
		return out
	}
	for i, p := range ct.Polys {
		poly.MulNegacyclic(out.Polys[i], p, mp, par.Q)
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
// result into out, reusing pooled big.Int scratch so the schoolbook
// rescale allocates nothing.
func (ev *Evaluator) scaleRound(out *poly.Poly, coeffs []*big.Int) {
	par := ev.params
	s := ev.getScratch()
	defer ev.putScratch(s)
	for i, c := range coeffs {
		s.num.Mul(c, s.tBig)
		divRoundInto(s.m, s.num, par.Q.Half, par.Q.QBig)
		s.m.Mod(s.m, par.Q.QBig)
		out.Coeff(i).SetBig(s.m)
	}
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
		out := ev.newCiphertext(3)
		for i, rd := range []*dcrt.Poly{rd0, rd1, rd2} {
			sr.ScaleRound(out.Polys[i], rd)
		}
		return out, nil
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

	out := ev.newCiphertext(3)
	for i, d := range [][]*big.Int{d0, d1, d2} {
		ev.scaleRound(out.Polys[i], d)
	}
	return out, nil
}

// Relinearize reduces a degree-2 ciphertext back to degree 1 using the
// relinearization key: c2 is decomposed in base 2^BaseBits and folded into
// (c0, c1) via the evaluation keys.
func (ev *Evaluator) Relinearize(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Degree() == 1 {
		return ev.copyOf(ct), nil
	}
	if ct.Degree() != 2 {
		return nil, errors.New("bfv: Relinearize supports degree-2 ciphertexts")
	}
	if ev.rlk == nil {
		return nil, errors.New("bfv: evaluator has no relinearization key")
	}
	par := ev.params
	out := ev.newCiphertext(2)
	c0, c1 := out.Polys[0], out.Polys[1]
	copy(c0.C, ct.Polys[0].C)
	copy(c1.C, ct.Polys[1].C)

	if ev.useDCRT() {
		ctx := par.dcrtCtx
		k0, k1 := ev.rlk.nttForms(ctx)
		// Digit decomposition by limb shifts, accumulation in the NTT
		// domain, fast base conversion out — no big.Int on the path.
		s0, s1 := ev.newPoly(), ev.newPoly()
		keySwitchAcc(ctx, s0, s1, relinDigits(ctx, par, ct.Polys[2]), k0, k1)
		poly.Add(c0, c0, s0, par.Q)
		poly.Add(c1, c1, s1, par.Q)
		ev.putPoly(s0)
		ev.putPoly(s1)
		return out, nil
	}

	ev.rlk.switchSchoolbook(c0, c1, decomposePoly(ct.Polys[2], par), par)
	return out, nil
}

// Mul returns the relinearized product of two degree-1 ciphertexts. On
// the double-CRT backend the tensor, rescale and key switch fuse through
// the deferred-product pipeline (see mul_ntt.go): the rescaled components
// and the key-switching accumulators sum as exact integers in the
// extended basis and leave through a single base conversion each — one
// conversion and one packing pass fewer per component than rescaling and
// key-switching separately, with bit-identical results.
func (ev *Evaluator) Mul(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	if ev.canDeferMuls() && ct0.Degree() == 1 && ct1.Degree() == 1 {
		ctx := ev.params.dcrtCtx
		res0, res1 := ev.mulDeferred(ct0, ct1)
		defer ctx.PutScratch(res0)
		defer ctx.PutScratch(res1)
		out := ev.newCiphertext(2)
		ctx.FromResidues(out.Polys[0], res0)
		ctx.FromResidues(out.Polys[1], res1)
		return out, nil
	}
	d2, err := ev.MulNoRelin(ct0, ct1)
	if err != nil {
		return nil, err
	}
	defer d2.Release()
	return ev.Relinearize(d2)
}

// ScaleRoundCoeffs maps integer coefficients c to ⌊t·c/q⌉ mod q — the
// BFV tensor rescaling step, exported for backends that compute the
// tensor products on an accelerator and finish the scaling on the host.
func ScaleRoundCoeffs(params *Parameters, coeffs []*big.Int) *poly.Poly {
	ev := Evaluator{params: params}
	out := poly.NewPoly(len(coeffs), params.Q.W)
	ev.scaleRound(out, coeffs)
	return out
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
