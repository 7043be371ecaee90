package bfv

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/dcrt"
	"repro/internal/poly"
)

// BatchEvaluator runs homomorphic pipelines over slices of ciphertexts —
// the shape of the paper's PIM workloads, where many ciphertexts flow
// through the same Mul/Add/Rotate kernels. Per-ciphertext work is
// scheduled on the same process-wide bounded pool the double-CRT backend
// uses for per-limb work (dcrt.Parallel): batch-level tasks fill idle
// workers, limb-level tasks fill the rest, and nested submission falls
// back inline, so a batch can never oversubscribe the machine. Rotations
// are hoisted: each input ciphertext is digit-decomposed once and the
// decomposition is shared across all requested Galois elements.
//
// Every result is bit-identical to running the wrapped Evaluator's
// operations one at a time in slice order.
type BatchEvaluator struct {
	ev *Evaluator
}

// NewBatchEvaluator returns a batched front end over the double-CRT
// backend. rlk may be nil if MulMany is not used.
func NewBatchEvaluator(params *Parameters, rlk *RelinKey) *BatchEvaluator {
	return &BatchEvaluator{ev: NewEvaluator(params, rlk)}
}

// NewBatchEvaluatorFrom wraps an existing evaluator (e.g. a schoolbook
// oracle for differential testing). A metered evaluator is supported but
// runs its batch items sequentially: its Meter is one limb32.Counts
// tally — plain memory, added to without synchronization by design —
// so its items must not run concurrently.
func NewBatchEvaluatorFrom(ev *Evaluator) *BatchEvaluator {
	return &BatchEvaluator{ev: ev}
}

// forEach runs f over [0, n) — on the shared worker pool, or in slice
// order when the wrapped evaluator meters (see NewBatchEvaluatorFrom) —
// and returns the first error by index (deterministic even though
// pooled execution is not).
func (be *BatchEvaluator) forEach(n int, f func(i int) error) error {
	if be.ev.Meter != nil {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	dcrt.Parallel(n, func(i int) {
		errs[i] = f(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MulMany returns the element-wise relinearized products as[i]·bs[i].
func (be *BatchEvaluator) MulMany(as, bs []*Ciphertext) ([]*Ciphertext, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("bfv: MulMany length mismatch: %d vs %d", len(as), len(bs))
	}
	out := make([]*Ciphertext, len(as))
	err := be.forEach(len(as), func(i int) error {
		ct, err := be.ev.Mul(as[i], bs[i])
		out[i] = ct
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AddMany returns the element-wise sums as[i] + bs[i].
func (be *BatchEvaluator) AddMany(as, bs []*Ciphertext) ([]*Ciphertext, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("bfv: AddMany length mismatch: %d vs %d", len(as), len(bs))
	}
	out := make([]*Ciphertext, len(as))
	_ = be.forEach(len(as), func(i int) error {
		out[i] = be.ev.Add(as[i], bs[i])
		return nil
	})
	return out, nil
}

// RotateMany returns τ_g(ct) for every Galois key in gks, hoisting the
// digit decomposition of ct: one decomposition serves all k rotations.
// Each output is bit-identical to ApplyGalois(ct, gks[i]).
func (be *BatchEvaluator) RotateMany(ct *Ciphertext, gks []*GaloisKey) ([]*Ciphertext, error) {
	h, err := be.ev.Hoist(ct)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	out := make([]*Ciphertext, len(gks))
	err = be.forEach(len(gks), func(i int) error {
		r, err := be.ev.ApplyGaloisHoisted(h, gks[i])
		out[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RotateManyAll applies the whole Galois-key set to every ciphertext:
// out[i][j] = τ_{gks[j]}(cts[i]), each row hoisted from one
// decomposition of cts[i].
func (be *BatchEvaluator) RotateManyAll(cts []*Ciphertext, gks []*GaloisKey) ([][]*Ciphertext, error) {
	out := make([][]*Ciphertext, len(cts))
	err := be.forEach(len(cts), func(i int) error {
		row, err := be.RotateMany(cts[i], gks)
		out[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RotateAndSum returns, for each input ciphertext, ct + Σ_g τ_g(ct) over
// the Galois-key set — the batched rotate-and-sum workload (aggregating
// shifted copies, e.g. partial slot sums). On the RNS-native backend the
// key-switching contributions of all k rotations accumulate in the
// extended basis and leave through a single base conversion, so the
// whole reduction pays 2 conversions instead of 2k; the result is still
// bit-identical to folding ApplyGalois outputs with Add in slice order,
// because the exact integer accumulator never wraps (checked against the
// basis bound, with a per-rotation fallback otherwise).
func (be *BatchEvaluator) RotateAndSum(cts []*Ciphertext, gks []*GaloisKey) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(cts))
	err := be.forEach(len(cts), func(i int) error {
		r, err := be.rotateAndSumOne(cts[i], gks)
		out[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fusedSumOK reports whether k rotations' key-switch accumulators can
// share one extended-basis accumulator without the exact integer sum
// wrapping: digits · n · 2^base · q per rotation, times k, must stay
// under the context's 2^BoundBits exactness window.
func fusedSumOK(ctx *dcrt.Context, par *Parameters, k int) bool {
	perRotation := par.Q.Bits() + int(par.RelinBaseBits) +
		bits.Len(uint(par.RelinDigits())) + bits.Len(uint(par.N)) + 1
	return perRotation+bits.Len(uint(k)) <= ctx.BoundBits
}

func (be *BatchEvaluator) rotateAndSumOne(ct *Ciphertext, gks []*GaloisKey) (*Ciphertext, error) {
	ev := be.ev
	par := ev.params
	h, err := ev.Hoist(ct)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	if h.ctx == nil || !fusedSumOK(h.ctx, par, len(gks)) {
		// Per-rotation fallback: hoisting still shares the decomposition.
		acc := ct.Clone()
		for _, gk := range gks {
			r, err := ev.ApplyGaloisHoisted(h, gk)
			if err != nil {
				return nil, err
			}
			acc = ev.Add(acc, r)
		}
		return acc, nil
	}
	ctx := h.ctx
	digits := h.snapshot(par)
	acc0 := ctx.GetScratch()
	acc1 := ctx.GetScratch()
	defer ctx.PutScratch(acc0)
	defer ctx.PutScratch(acc1)
	acc0.Zero()
	acc1.Zero()
	c0sum := ct.Polys[0].Clone()
	c1sum := ct.Polys[1].Clone()
	for _, gk := range gks {
		if gk == nil {
			return nil, errors.New("bfv: nil Galois key")
		}
		k0, k1 := gk.forms.get(ctx, gk.K0, gk.K1)
		idx := dcrt.GaloisNTTIndices(ctx.N, gk.G)
		galoisKeySwitchAcc(ctx, acc0, acc1, digits, idx, k0, k1)
		c0g := applyGaloisPoly(ct.Polys[0], gk.G, par.Q, nil)
		poly.Add(c0sum, c0sum, c0g, par.Q, nil)
	}
	s0 := ctx.FromRNS(acc0)
	s1 := ctx.FromRNS(acc1)
	poly.Add(c0sum, c0sum, s0, par.Q, nil)
	poly.Add(c1sum, c1sum, s1, par.Q, nil)
	return &Ciphertext{Polys: []*poly.Poly{c0sum, c1sum}}, nil
}
