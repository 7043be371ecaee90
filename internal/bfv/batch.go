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

// NewBatchEvaluatorFrom wraps an existing evaluator, Alloc included.
func NewBatchEvaluatorFrom(ev *Evaluator) *BatchEvaluator {
	return &BatchEvaluator{ev: ev}
}

// forEach runs f over [0, n) on the shared worker pool and returns the
// first error by index (deterministic even though pooled execution is
// not).
func (be *BatchEvaluator) forEach(n int, f func(i int) error) error {
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
		releaseOutputs(out)
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
		releaseOutputs(out)
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
		for _, row := range out {
			releaseOutputs(row)
		}
		return nil, err
	}
	return out, nil
}

// RotateAndSum returns, for each input ciphertext, ct + Σ_g τ_g(ct) over
// the Galois-key set — the batched rotate-and-sum workload (aggregating
// shifted copies, e.g. partial slot sums). The key-switching
// contributions of all k rotations accumulate in the extended basis and
// leave through a single base conversion, so the whole reduction pays 2
// conversions instead of 2k; the result is still bit-identical to
// folding ApplyGalois outputs with Add in slice order, because the exact
// integer accumulator never wraps (checked against the basis bound,
// with a per-rotation fallback otherwise).
func (be *BatchEvaluator) RotateAndSum(cts []*Ciphertext, gks []*GaloisKey) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(cts))
	err := be.forEach(len(cts), func(i int) error {
		r, err := be.rotateAndSumOne(cts[i], gks)
		out[i] = r
		return err
	})
	if err != nil {
		releaseOutputs(out)
		return nil, err
	}
	return out, nil
}

// fusedSumOK reports whether k rotations' key-switch accumulators can
// share one extended-basis accumulator without the exact integer sum
// wrapping: digits · n · 2^base · q per rotation, times k, must stay
// under the context's 2^BoundBits exactness window.
func fusedSumOK(ctx *dcrt.Context, par *Parameters, k int) bool {
	return keySwitchBits(par)+1+bits.Len(uint(k)) <= ctx.BoundBits
}

func (be *BatchEvaluator) rotateAndSumOne(ct *Ciphertext, gks []*GaloisKey) (*Ciphertext, error) {
	ev := be.ev
	par := ev.params
	h, err := ev.Hoist(ct)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	for _, gk := range gks {
		if gk == nil {
			return nil, errors.New("bfv: nil Galois key")
		}
	}
	acc := ev.copyOf(ct)
	if !fusedSumOK(h.ctx, par, len(gks)) {
		// Per-rotation fallback: hoisting still shares the decomposition,
		// and every rotation adds into the one owned accumulator.
		for _, gk := range gks {
			r, err := ev.ApplyGaloisHoisted(h, gk)
			if err != nil {
				acc.Release()
				return nil, err
			}
			for i, p := range acc.Polys {
				poly.Add(p, p, r.Polys[i], par.Q)
			}
			r.Release()
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
	tmp := ev.newPoly()
	defer ev.putPoly(tmp)
	c0sum, c1sum := acc.Polys[0], acc.Polys[1]
	for _, gk := range gks {
		gk.switchAcc(ctx, acc0, acc1, digits, dcrt.GaloisNTTIndices(ctx.N, gk.G))
		applyGaloisPoly(tmp, ct.Polys[0], gk.G, par.Q)
		poly.Add(c0sum, c0sum, tmp, par.Q)
	}
	ctx.FromRNSInto(tmp, acc0)
	poly.Add(c0sum, c0sum, tmp, par.Q)
	ctx.FromRNSInto(tmp, acc1)
	poly.Add(c1sum, c1sum, tmp, par.Q)
	return acc, nil
}

// releaseOutputs hands back the outputs a failed batch already produced:
// the caller only sees the error, so nothing else can.
func releaseOutputs[T interface {
	comparable
	Value
}](out []T) {
	var none T
	for _, v := range out {
		if v != none {
			v.Release()
		}
	}
}
