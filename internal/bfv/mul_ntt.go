package bfv

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/dcrt"
)

// NTT-resident multiplication outputs: a relinearized product's two
// components are exact integers in the extended basis — the rescaled
// tensor component Y = ⌊t·d/q⌉ plus the key-switching accumulator — and
// nothing forces them through the mod-q base conversion until a consumer
// needs coefficients. A ProductNTT keeps them as residue-domain
// accumulators: deferred products add in the RNS domain (fusing
// Mul-then-Sum pipelines into a single final conversion pair), chain into
// further multiplications through a centered-mod-q NTT form computed
// without ever packing coefficients, and materialize bit-identically to
// Evaluator.Mul. This extends PR 4's RotatedNTT pattern from rotations to
// the multiplication pipeline.

// ProductNTT is a relinearized degree-1 product held in deferred
// double-CRT form: res0/res1 are residue-domain extended-basis elements
// whose exact integer coefficients are congruent mod q to the
// materialized components. On backends that cannot defer the handle is
// created already materialized and behaves identically.
//
// Materialize, Add, Release and operand use are mutually safe: each takes
// the handle's lock (Add takes both operands' locks in allocation order),
// and Add reports false — so callers materialize and fall back — when an
// operand was already materialized or released.
type ProductNTT struct {
	par   *Parameters
	ctx   *dcrt.Context    // nil when the handle was created materialized
	alloc BackingAllocator // backs the materialized ciphertext (Evaluator.Alloc)

	seq     uint64 // allocation order, the Add lock ordering
	magBits int    // bound: |component value| < 2^magBits

	mu           sync.Mutex
	res0, res1   *dcrt.Poly // residue-domain exact accumulators; nil after Release
	cent0, cent1 *dcrt.Poly // cached centered NTT forms for chaining
	ct           *Ciphertext

	// inUse counts in-flight multiplications reading this handle as an
	// operand; a Release or Materialize that arrives while they run (a
	// concurrent consumer forcing the same facade handle) is deferred
	// until the last one finishes instead of freeing accumulators under
	// them. released records that the deferred free is a Release, which
	// also returns the materialized ciphertext.
	inUse          int
	releasePending bool
	released       bool
}

// productSeq hands out the package-wide lock order for ProductNTT.
var productSeq atomic.Uint64

// mulMagBits bounds the exact integer magnitude of a deferred product's
// components: the rescaled tensor part |⌊t·d/q⌉| ≤ t·n·q/4 + 1 plus the
// key-switching accumulator (digits · n · 2^base · q), conservatively
// rounded up.
func mulMagBits(par *Parameters) int {
	tensor := bits.Len64(par.T) + par.Q.Bits() + bits.Len(uint(par.N))
	keySwitch := par.Q.Bits() + int(par.RelinBaseBits) +
		bits.Len(uint(par.RelinDigits())) + bits.Len(uint(par.N)) + 1
	if keySwitch > tensor {
		tensor = keySwitch
	}
	return tensor + 2
}

// mulOperand is an input to the tensor product: a *Ciphertext (degree 1)
// or a live *ProductNTT — the latter feeds its centered NTT forms straight
// into the next tensor product, so chained multiplications never pack
// coefficients between levels.
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
	if p, ok := v.(*ProductNTT); ok {
		return p
	}
	return v.Materialize()
}

func (ct *Ciphertext) tensorOperand(ctx *dcrt.Context, i int) *dcrt.Poly {
	return ct.rnsNTT(ctx, i)
}

func (ct *Ciphertext) acquireOperand() {}
func (ct *Ciphertext) releaseOperand() {}

// tensorOperand serves the deferred product's cached centered NTT forms,
// building both on first use from the residue-domain accumulators — one
// base conversion and one lazy forward-transform set per component,
// bit-identical to materializing and re-decomposing. A handle whose
// accumulators were already released (a concurrent consumer forced and
// freed it) serves the materialized ciphertext's cached forms instead.
func (r *ProductNTT) tensorOperand(ctx *dcrt.Context, i int) *dcrt.Poly {
	r.mu.Lock()
	if r.ctx != nil && r.ctx != ctx {
		r.mu.Unlock()
		panic("bfv: ProductNTT used with a foreign double-CRT context")
	}
	if r.cent0 == nil && r.res0 != nil {
		r.cent0 = ctx.CenteredNTTFromResidues(r.res0)
		r.cent1 = ctx.CenteredNTTFromResidues(r.res1)
	}
	if r.cent0 != nil {
		f := r.cent0
		if i == 1 {
			f = r.cent1
		}
		r.mu.Unlock()
		return f
	}
	ct := r.ct
	r.mu.Unlock()
	if ct == nil {
		panic("bfv: ProductNTT operand use after Release")
	}
	return ct.rnsNTT(ctx, i)
}

func (r *ProductNTT) acquireOperand() {
	r.mu.Lock()
	r.inUse++
	r.mu.Unlock()
}

func (r *ProductNTT) releaseOperand() {
	r.mu.Lock()
	r.inUse--
	if r.inUse == 0 && r.releasePending {
		r.releasePending = false
		r.freeLocked()
	}
	r.mu.Unlock()
}

// freeLocked returns the accumulators and cached forms to the pool, and
// after Release the materialized ciphertext too; the caller holds r.mu.
func (r *ProductNTT) freeLocked() {
	if r.released && r.ct != nil {
		r.ct.Release()
	}
	if r.res0 != nil {
		r.ctx.PutScratch(r.res0)
		r.ctx.PutScratch(r.res1)
		r.res0, r.res1 = nil, nil
	}
	if r.cent0 != nil {
		r.ctx.PutScratch(r.cent0)
		r.ctx.PutScratch(r.cent1)
		r.cent0, r.cent1 = nil, nil
	}
}

// CanDeferMuls reports whether this evaluator's products can actually
// stay NTT-resident: only the double-CRT backend (with a relinearization
// key) defers; other backends' MulNTT transparently materializes.
// Capability queries gate on this instead of assuming deferral happened.
func (ev *Evaluator) CanDeferMuls() bool {
	return ev.useDCRT() && ev.rlk != nil && mulMagBits(ev.params)+1 < ev.params.dcrtCtx.BoundBits
}

// MulNTT returns the relinearized product of two degree-1 operands in
// deferred NTT-resident form: the tensor products, rescaling and
// key-switching accumulation run as usual, but the two output base
// conversions are postponed until Materialize, deferred products Add in
// the RNS domain, and a ProductNTT operand chains its centered NTT forms
// straight into the next tensor — a Mul→Mul→Mul chain packs coefficients
// only where a digit decomposition genuinely needs them. On backends that
// cannot defer it falls back to the materialized path; either way
// Materialize's result is bit-identical to Evaluator.Mul.
func (ev *Evaluator) MulNTT(av, bv Value) (*ProductNTT, error) {
	if !ev.CanDeferMuls() {
		ct, err := ev.Mul(av.Materialize(), bv.Materialize())
		if err != nil {
			return nil, err
		}
		return &ProductNTT{par: ev.params, alloc: ev.Alloc, ct: ct}, nil
	}
	a, b := operandOf(av), operandOf(bv)
	if ct, ok := a.(*Ciphertext); ok && ct.Degree() != 1 {
		return nil, errors.New("bfv: MulNTT requires degree-1 operands")
	}
	if ct, ok := b.(*Ciphertext); ok && ct.Degree() != 1 {
		return nil, errors.New("bfv: MulNTT requires degree-1 operands")
	}
	a.acquireOperand()
	defer a.releaseOperand()
	if b != a {
		b.acquireOperand()
		defer b.releaseOperand()
	}
	res0, res1 := ev.mulDeferred(a, b)
	return &ProductNTT{
		par: ev.params, ctx: ev.params.dcrtCtx, alloc: ev.Alloc,
		seq:  productSeq.Add(1),
		res0: res0, res1: res1,
		magBits: mulMagBits(ev.params),
	}, nil
}

// mulDeferred runs tensor + rescale + relinearization entirely in the
// extended basis and returns the two exact-integer component accumulators
// in the residue domain (pooled; the caller owns them). Requires
// CanDeferMuls.
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

// Materialize forces the deferred product into a coefficient-domain
// ciphertext (the two base conversions), caching the result — repeated
// calls convert once — and returns the accumulators to the scratch pool
// like Release. Bit-identical to Evaluator.Mul.
func (r *ProductNTT) Materialize() *Ciphertext {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ct == nil {
		if r.res0 == nil {
			panic("bfv: Materialize after Release on an unmaterialized ProductNTT")
		}
		r.ct = newCiphertextFrom(r.alloc, r.par, 2)
		r.ctx.FromResidues(r.ct.Polys[0], r.res0)
		r.ctx.FromResidues(r.ct.Polys[1], r.res1)
	}
	r.releaseLocked()
	return r.ct
}

// Add returns the deferred sum of two products, entirely in the RNS
// domain — no base conversion. It reports false when the sum cannot stay
// deferred (either operand already materialized or released, contexts
// differ, or the exact integer sum would leave the basis exactness
// window); callers then materialize and add mod q, which produces the
// identical result.
func (r *ProductNTT) Add(o *ProductNTT) (*ProductNTT, bool) {
	if r.ctx == nil || o.ctx == nil || r.ctx != o.ctx {
		return nil, false
	}
	mag := r.magBits
	if o.magBits > mag {
		mag = o.magBits
	}
	mag++
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
	if r.res0 == nil || o.res0 == nil || r.ct != nil || o.ct != nil {
		return nil, false
	}
	res0 := r.ctx.GetScratch()
	res1 := r.ctx.GetScratch()
	// The accumulators carry the lazy < 2p bound; the lazy add keeps the
	// fold closed under that bound (a strict r.Add would let limb words
	// creep up by ~p per chained sum and silently wrap on long folds).
	r.ctx.AddLazyNTT(res0, r.res0, o.res0)
	r.ctx.AddLazyNTT(res1, r.res1, o.res1)
	return &ProductNTT{
		par: r.par, ctx: r.ctx, alloc: r.alloc,
		seq:  productSeq.Add(1),
		res0: res0, res1: res1,
		magBits: mag,
	}, true
}

// Release returns the accumulators and cached forms to the context's
// scratch pool and releases the materialized ciphertext, if any (see
// Ciphertext.Release). Call it on every handle that is done with to keep
// steady-state batched multiplication allocation-free; the handle must
// not be used for further Add, operand use, or Materialize afterwards.
// A Release racing an in-flight multiplication that reads this handle is
// deferred until that multiplication finishes.
func (r *ProductNTT) Release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.released = true
	r.releaseLocked()
}

func (r *ProductNTT) releaseLocked() {
	if r.inUse > 0 {
		r.releasePending = true
		return
	}
	r.freeLocked()
}

// MulManyNTT is MulMany with deferred outputs: each product stays
// NTT-resident until a consumer forces coefficients, so Mul-then-Sum
// pipelines (dot products, variance sums) pay one base-conversion pair
// for the whole reduction instead of one per product. Materializing every
// output reproduces MulMany bit for bit.
func (be *BatchEvaluator) MulManyNTT(as, bs []Value) ([]*ProductNTT, error) {
	if len(as) != len(bs) {
		return nil, errors.New("bfv: MulManyNTT length mismatch")
	}
	out := make([]*ProductNTT, len(as))
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
