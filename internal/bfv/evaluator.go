package bfv

import (
	"errors"

	"repro/internal/dcrt"
	"repro/internal/poly"
)

// Evaluator performs homomorphic operations on ciphertexts. It is the
// functional counterpart of the paper's PIM kernels: EvalAdd is
// coefficient-wise polynomial addition, EvalMul is the tensor product
// built from polynomial multiplications and additions (§3).
//
// Every ring product runs on the double-CRT (RNS + NTT) backend —
// O(n log n) per limb, the optimization the paper's SEAL baseline owes
// its multiplication lead to and defers to future work for PIM (§3,
// §4.1) — bit-identical to the schoolbook Oracle.
//
// Setting Alloc makes the evaluator draw the coefficient backings of
// every ciphertext it returns — directly, or through a deferred value's
// Materialize — from that allocator, and those of its coefficient-domain
// temporaries, which go back before the operation returns. An output's
// Release returns its backings; nil means the heap.
type Evaluator struct {
	coeffOps
	rlk *RelinKey
}

// coeffOps is what the Evaluator and the Oracle share: outputs drawn
// from Alloc, and the operations with no ring product.
type coeffOps struct {
	params *Parameters
	Alloc  BackingAllocator // set before first use
}

// NewEvaluator returns an evaluator; rlk may be nil if Relinearize and
// Mul are not used.
func NewEvaluator(params *Parameters, rlk *RelinKey) *Evaluator {
	return &Evaluator{coeffOps: coeffOps{params: params}, rlk: rlk}
}

// newPoly returns a polynomial drawn from Alloc (see newPolyFrom): its
// contents are undefined unless Alloc is nil.
func (co *coeffOps) newPoly() *poly.Poly {
	return newPolyFrom(co.Alloc, co.params.N, co.params.Q.W)
}

// putPoly returns a temporary drawn by newPoly.
func (co *coeffOps) putPoly(p *poly.Poly) {
	if co.Alloc != nil {
		co.Alloc.Put(p.C)
	}
}

// newCiphertext returns an output of k components drawn by newPoly.
func (co *coeffOps) newCiphertext(k int) *Ciphertext {
	return newCiphertextFrom(co.Alloc, co.params, k)
}

// copyOf returns a copy of ct in components drawn by newPoly.
func (co *coeffOps) copyOf(ct *Ciphertext) *Ciphertext {
	out := co.newCiphertext(len(ct.Polys))
	for i, p := range ct.Polys {
		copy(out.Polys[i].C, p.C)
	}
	return out
}

// Add returns ct0 + ct1 (component-wise in R_q). Operands of different
// degrees are supported; the missing components are treated as zero.
func (co *coeffOps) Add(ct0, ct1 *Ciphertext) *Ciphertext {
	par := co.params
	out := co.newCiphertext(max(len(ct0.Polys), len(ct1.Polys)))
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

// Neg returns -ct.
func (co *coeffOps) Neg(ct *Ciphertext) *Ciphertext {
	out := co.newCiphertext(len(ct.Polys))
	for i, p := range ct.Polys {
		poly.Neg(out.Polys[i], p, co.params.Q)
	}
	return out
}

// AddPlain returns ct + Δ·m for plaintext m.
func (co *coeffOps) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	par := co.params
	out := co.copyOf(ct)
	poly.Add(out.Polys[0], out.Polys[0], deltaPoly(par, pt, nil), par.Q)
	return out
}

// Sum returns Σ cts, a fresh ciphertext that never aliases an input (a
// single operand is copied). Components missing from lower-degree
// operands count as zero. It allocates only the output and sums each
// (component, poly.SumBlock-coefficient chunk) as one task on the worker
// pool, reducing every coefficient once (poly.SumRange). Addition of
// residues mod q does not depend on order or on when it reduces, so this
// gives the bits of the Oracle's slice-order fold.
func (ev *Evaluator) Sum(cts []*Ciphertext) *Ciphertext {
	if len(cts) == 0 {
		panic("bfv: Sum of no ciphertexts")
	}
	if len(cts) == 1 {
		return ev.copyOf(cts[0])
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

// MulPlain returns ct · m for plaintext m (each component multiplied by
// the plaintext polynomial, no Δ scaling — standard BFV plaintext mul).
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	par := ev.params
	ctx := par.dcrtCtx
	mpR := ctx.ToRNS(scaledPoly(par, pt, 1, 0, nil)) // m < t < q: each coefficient is its own residue
	defer ctx.PutScratch(mpR)
	out := ev.newCiphertext(len(ct.Polys))
	for i, p := range ct.Polys {
		pR := ctx.ToRNS(p)
		ctx.MulNTT(pR, pR, mpR)
		ctx.FromRNSInto(out.Polys[i], pR)
		ctx.PutScratch(pR)
	}
	return out
}

// MulNoRelin returns the degree-2 tensor product of two degree-1
// ciphertexts:
//
//	d0 = ⌊t·c0·c0'/q⌉, d1 = ⌊t·(c0·c1' + c1·c0')/q⌉, d2 = ⌊t·c1·c1'/q⌉
//
// The tensor runs in the extended basis: the centered NTT forms of the
// operands come from the per-ciphertext cache (chained and squared
// operands pay no repeat transforms), the three tensor components are
// pointwise products, and rescaling runs RNS-native — word-sized base
// conversion and exact division, no big.Int.
func (ev *Evaluator) MulNoRelin(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	if ct0.Degree() != 1 || ct1.Degree() != 1 {
		return nil, errors.New("bfv: MulNoRelin requires degree-1 operands")
	}
	par := ev.params
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

// errNoRelinKey is returned by every operation that needs the
// relinearization key on an evaluator built without one.
var errNoRelinKey = errors.New("bfv: evaluator has no relinearization key")

// Relinearize reduces a degree-2 ciphertext back to degree 1 using the
// relinearization key: c2 is decomposed in base 2^BaseBits by limb
// shifts (lazily reduced forward transforms, one per digit), Σᵢ digitᵢ·keyᵢ
// folds in one fused 128-bit pass per key component in the NTT domain,
// and each accumulator leaves through the fast base conversion onto
// (c0, c1) — no big.Int and no steady-state allocation on the path.
func (ev *Evaluator) Relinearize(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Degree() == 1 {
		return ev.copyOf(ct), nil
	}
	if ct.Degree() != 2 {
		return nil, errors.New("bfv: Relinearize supports degree-2 ciphertexts")
	}
	if ev.rlk == nil {
		return nil, errNoRelinKey
	}
	par := ev.params
	ctx := par.dcrtCtx
	k0, k1 := ev.rlk.nttForms(ctx)
	digits := ctx.DigitsToRNS(ct.Polys[2], par.RelinBaseBits, par.RelinDigits())
	acc0, acc1 := ctx.GetScratch(), ctx.GetScratch()
	defer ctx.PutScratch(acc0)
	defer ctx.PutScratch(acc1)
	ctx.MulPairAllNTT(acc0, acc1, k0, k1, digits)
	for _, d := range digits {
		ctx.PutScratch(d)
	}
	out, s := ev.newCiphertext(2), ev.newPoly()
	defer ev.putPoly(s)
	ctx.FromRNSInto(s, acc0)
	poly.Add(out.Polys[0], ct.Polys[0], s, par.Q)
	ctx.FromRNSInto(s, acc1)
	poly.Add(out.Polys[1], ct.Polys[1], s, par.Q)
	return out, nil
}

// Mul returns the relinearized product of two degree-1 ciphertexts: a
// materialized MulNTT. The tensor, rescale and key switch fuse in the
// extended basis (see mul_ntt.go), and the rescaled components and the
// key-switching accumulators leave through a single base conversion each
// — one conversion and one packing pass fewer per component than
// rescaling and key-switching separately, with bit-identical results.
func (ev *Evaluator) Mul(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	d, err := ev.MulNTT(ct0, ct1)
	if err != nil {
		return nil, err
	}
	return d.Materialize(), nil // frees d's accumulators; the ciphertext is the caller's
}
