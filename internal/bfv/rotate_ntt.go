package bfv

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/dcrt"
)

// NTT-resident rotation outputs: the per-rotation cost of a hoisted
// ApplyGalois is dominated by the two base conversions that turn the
// key-switching accumulators back into coefficient-domain polynomials —
// the step that caps RotateMany at ~1.4× over serial rotation even
// though the digit decomposition is shared. A RotatedNTT defers those
// conversions: the output stays as its exact-integer NTT accumulators in
// the extended basis until a consumer actually forces coefficients
// (Materialize), and deferred outputs can be summed directly in the NTT
// domain (Add), so a rotate-then-aggregate pipeline pays base
// conversions only for the ciphertexts it keeps.

// RotatedNTT is a degree-1 rotation output held in deferred double-CRT
// form. The two accumulators hold the exact integer values of the output
// components (congruent mod q to the materialized polynomials), so
// Materialize is bit-identical to ApplyGaloisHoisted. On the schoolbook
// and metered evaluators, which cannot defer, the handle is created
// already materialized and behaves identically.
//
// Materialize, Add and Release are mutually safe: each takes the
// handle's lock (Add takes both operands' locks in allocation order),
// and Add reports false — so callers fall back to coefficient addition
// — when an operand's accumulators were already released.
type RotatedNTT struct {
	par   *Parameters
	ctx   *dcrt.Context    // nil when the handle was created materialized
	alloc BackingAllocator // backs the materialized ciphertext (Evaluator.Alloc)

	seq     uint64 // allocation order, the Add lock ordering
	magBits int    // bound: |component value| < 2^magBits

	mu         sync.Mutex
	acc0, acc1 *dcrt.Poly  // exact-integer NTT accumulators; nil after Release
	ct         *Ciphertext // materialized form, cached
}

// rotatedSeq hands out the package-wide lock order for RotatedNTT.
var rotatedSeq atomic.Uint64

// rotatedMagBits bounds the exact integer magnitude of a rotation
// output's components: the key-switching accumulator (digits · n ·
// 2^base · q) plus the permuted c0 (≤ q/2), conservatively rounded up.
func rotatedMagBits(par *Parameters) int {
	return par.Q.Bits() + int(par.RelinBaseBits) +
		bits.Len(uint(par.RelinDigits())) + bits.Len(uint(par.N)) + 2
}

// ApplyGaloisHoistedNTT is ApplyGaloisHoisted returning the rotation in
// deferred NTT form: the slot permutation of c0 and the key-switching
// accumulation run as usual, but the two output base conversions are
// postponed until Materialize. On backends that cannot defer it falls
// back to the materialized path; either way Materialize's result is
// bit-identical to ApplyGaloisHoisted.
func (ev *Evaluator) ApplyGaloisHoistedNTT(h *Hoisted, gk *GaloisKey) (*RotatedNTT, error) {
	if gk == nil {
		return nil, errors.New("bfv: nil Galois key")
	}
	if h.ctx == nil || !ev.useDCRT() {
		ct, err := ev.ApplyGaloisHoisted(h, gk)
		if err != nil {
			return nil, err
		}
		return &RotatedNTT{par: ev.params, alloc: ev.Alloc, ct: ct}, nil
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
	return &RotatedNTT{
		par: par, ctx: ctx, alloc: ev.Alloc,
		seq:  rotatedSeq.Add(1),
		acc0: acc0, acc1: acc1,
		magBits: rotatedMagBits(par),
	}, nil
}

// Materialize forces the deferred output into a coefficient-domain
// ciphertext (the two base conversions), caching the result — repeated
// calls convert once — and returns the accumulators to the scratch pool
// like Release. Bit-identical to ApplyGaloisHoisted, which is
// bit-identical to per-rotation ApplyGalois.
func (r *RotatedNTT) Materialize() *Ciphertext {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ct == nil {
		if r.acc0 == nil {
			panic("bfv: Materialize after Release on an unmaterialized RotatedNTT")
		}
		r.ct = newCiphertextFrom(r.alloc, r.par, 2)
		r.ctx.FromRNSInto(r.ct.Polys[0], r.acc0)
		r.ctx.FromRNSInto(r.ct.Polys[1], r.acc1)
	}
	r.releaseLocked()
	return r.ct
}

// Add returns the deferred sum of two rotation outputs, entirely in the
// NTT domain — no base conversion. It reports false when the sum cannot
// stay deferred (either operand already materialized or released,
// contexts differ, or the exact integer sum would leave the basis
// exactness window); callers then materialize and add mod q, which
// produces the identical result. Both operands' locks are held for the
// duration, so a concurrent Release cannot free an accumulator mid-sum.
func (r *RotatedNTT) Add(o *RotatedNTT) (*RotatedNTT, bool) {
	if r.ctx == nil || o.ctx == nil || r.ctx != o.ctx {
		return nil, false
	}
	mag := max(r.magBits, o.magBits) + 1
	if mag >= r.ctx.BoundBits {
		return nil, false
	}
	if r == o {
		r.mu.Lock()
		defer r.mu.Unlock()
	} else {
		first, second := r, o
		if first.seq > second.seq {
			first, second = second, first
		}
		first.mu.Lock()
		defer first.mu.Unlock()
		second.mu.Lock()
		defer second.mu.Unlock()
	}
	if r.acc0 == nil || o.acc0 == nil {
		return nil, false
	}
	acc0 := r.ctx.GetScratch()
	acc1 := r.ctx.GetScratch()
	r.ctx.AddNTT(acc0, r.acc0, o.acc0)
	r.ctx.AddNTT(acc1, r.acc1, o.acc1)
	return &RotatedNTT{
		par: r.par, ctx: r.ctx, alloc: r.alloc,
		seq:  rotatedSeq.Add(1),
		acc0: acc0, acc1: acc1,
		magBits: mag,
	}, true
}

// Release returns the accumulators to the context's scratch pool and
// releases the materialized ciphertext, if any (see Ciphertext.Release).
// Call it on every handle that is done with to keep steady-state batched
// rotation allocation-free; the handle must not be used for further Add
// or Materialize afterwards.
func (r *RotatedNTT) Release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.releaseLocked()
	if r.ct != nil {
		r.ct.Release()
	}
}

// releaseLocked returns the accumulators to the scratch pool; the
// caller holds r.mu.
func (r *RotatedNTT) releaseLocked() {
	if r.acc0 != nil {
		r.ctx.PutScratch(r.acc0)
		r.ctx.PutScratch(r.acc1)
		r.acc0, r.acc1 = nil, nil
	}
}

// RotateManyNTT is RotateMany with deferred outputs: one hoisted digit
// decomposition serves all k Galois elements and no output pays its base
// conversions until materialized. Materializing every output reproduces
// RotateMany bit for bit; consumers that only aggregate (Add) or discard
// outputs skip the conversions entirely.
func (be *BatchEvaluator) RotateManyNTT(ct *Ciphertext, gks []*GaloisKey) ([]*RotatedNTT, error) {
	h, err := be.ev.Hoist(ct)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	out := make([]*RotatedNTT, len(gks))
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
