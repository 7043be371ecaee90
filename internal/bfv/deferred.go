package bfv

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/dcrt"
	"repro/internal/poly"
)

// Deferred outputs: a relinearized product's or a hoisted rotation's two
// components are exact integers in the extended basis — rescaled tensor
// or permuted c0, plus the key-switching accumulator — and nothing
// forces them through the mod-q base conversions until a consumer needs
// coefficients. A Deferred keeps them as its accumulators: deferred
// values of one domain add without any conversion (fusing
// Mul-then-Sum and Rotate-then-Sum pipelines into a single final
// conversion pair), products chain into further multiplications through
// a centered-mod-q NTT form computed without ever packing coefficients,
// and every value materializes bit-identically to its eager operation.

// domain is where a Deferred's accumulators live. It picks the add
// kernel and the exit conversion; only residue-domain values chain as
// tensor operands.
type domain uint8

const (
	// residueDomain holds products (MulNTT): lazily reduced (< 2p)
	// residues, added with AddLazyNTT and converted by FromResidues.
	residueDomain domain = iota
	// nttDomain holds rotations (ApplyGaloisHoistedNTT): NTT-domain
	// accumulators, added with AddNTT and converted by FromRNSInto.
	nttDomain
)

func (dom domain) add(ctx *dcrt.Context, dst, a, b *dcrt.Poly) {
	if dom == nttDomain {
		ctx.AddNTT(dst, a, b)
		return
	}
	// The accumulators carry the lazy < 2p bound; the lazy add keeps the
	// fold closed under that bound (a strict add would let limb words
	// creep up by ~p per chained sum and silently wrap on long folds).
	ctx.AddLazyNTT(dst, a, b)
}

func (dom domain) exit(ctx *dcrt.Context, dst *poly.Poly, src *dcrt.Poly) {
	if dom == nttDomain {
		ctx.FromRNSInto(dst, src)
		return
	}
	ctx.FromResidues(dst, src)
}

// Deferred is a degree-1 product or rotation output held in deferred
// double-CRT form: acc0/acc1 hold the exact integer values of the output
// components, congruent mod q to the materialized polynomials.
//
// Materialize, Add, Release and operand use are mutually safe: each
// takes the handle's lock (Add takes both operands' locks in allocation
// order), and Add reports false — so callers materialize and fall back —
// when the domains differ or an operand was already materialized or
// released.
type Deferred struct {
	par   *Parameters
	ctx   *dcrt.Context
	alloc BackingAllocator // backs the materialized ciphertext (Evaluator.Alloc)
	dom   domain

	seq     uint64 // allocation order, the Add lock ordering
	magBits int    // bound: |component value| < 2^magBits

	mu           sync.Mutex
	acc0, acc1   *dcrt.Poly // exact accumulators; nil once freed
	cent0, cent1 *dcrt.Poly // residue domain: cached centered NTT forms for chaining
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

// deferredSeq hands out the package-wide lock order for Deferred.
var deferredSeq atomic.Uint64

// newDeferred wraps two pooled accumulators the handle now owns.
func newDeferred(par *Parameters, ctx *dcrt.Context, alloc BackingAllocator, dom domain, acc0, acc1 *dcrt.Poly, magBits int) *Deferred {
	return &Deferred{
		par: par, ctx: ctx, alloc: alloc, dom: dom,
		seq: deferredSeq.Add(1), magBits: magBits,
		acc0: acc0, acc1: acc1,
	}
}

// keySwitchBits bounds the exact magnitude of one key-switching
// accumulator, digits · n · 2^base · q, before its callers' rounding
// offsets.
func keySwitchBits(par *Parameters) int {
	return par.Q.Bits() + int(par.RelinBaseBits) +
		bits.Len(uint(par.RelinDigits())) + bits.Len(uint(par.N))
}

// Materialize forces the deferred value into a coefficient-domain
// ciphertext (the two base conversions), caching the result — repeated
// calls convert once — and returns the accumulators to the scratch pool
// like Release. Bit-identical to the eager operation: Evaluator.Mul for
// a product, ApplyGaloisHoisted for a rotation.
func (d *Deferred) Materialize() *Ciphertext {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ct == nil {
		if d.acc0 == nil {
			panic("bfv: Materialize after Release on an unmaterialized Deferred")
		}
		d.ct = newCiphertextFrom(d.alloc, d.par, 2)
		d.dom.exit(d.ctx, d.ct.Polys[0], d.acc0)
		d.dom.exit(d.ctx, d.ct.Polys[1], d.acc1)
	}
	d.releaseLocked()
	return d.ct
}

// Add returns the deferred sum of two values of one domain — no base
// conversion. It reports false when the sum cannot stay deferred (the
// domains or contexts differ, either operand is already materialized or
// released, or the exact integer sum would leave the basis exactness
// window); callers then materialize and add mod q, which produces the
// identical result.
func (d *Deferred) Add(o *Deferred) (*Deferred, bool) {
	if d.ctx != o.ctx || d.dom != o.dom {
		return nil, false
	}
	mag := max(d.magBits, o.magBits) + 1
	if mag >= d.ctx.BoundBits {
		return nil, false
	}
	if d == o {
		d.mu.Lock()
		defer d.mu.Unlock()
	} else {
		first, second := d, o
		if first.seq > second.seq {
			first, second = second, first
		}
		first.mu.Lock()
		defer first.mu.Unlock()
		second.mu.Lock()
		defer second.mu.Unlock()
	}
	if d.acc0 == nil || o.acc0 == nil || d.ct != nil || o.ct != nil {
		return nil, false
	}
	acc0 := d.ctx.GetScratch()
	acc1 := d.ctx.GetScratch()
	d.dom.add(d.ctx, acc0, d.acc0, o.acc0)
	d.dom.add(d.ctx, acc1, d.acc1, o.acc1)
	return newDeferred(d.par, d.ctx, d.alloc, d.dom, acc0, acc1, mag), true
}

// Release returns the accumulators and cached forms to the context's
// scratch pool and releases the materialized ciphertext, if any (see
// Ciphertext.Release). Call it on every handle that is done with to keep
// steady-state batched evaluation allocation-free; the handle must not
// be used for further Add, operand use, or Materialize afterwards. A
// Release racing an in-flight multiplication that reads this handle is
// deferred until that multiplication finishes.
func (d *Deferred) Release() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.released = true
	d.releaseLocked()
}

func (d *Deferred) releaseLocked() {
	if d.inUse > 0 {
		d.releasePending = true
		return
	}
	d.freeLocked()
}

// freeLocked returns the accumulators and cached forms to the pool, and
// after Release the materialized ciphertext too; the caller holds d.mu.
func (d *Deferred) freeLocked() {
	if d.released && d.ct != nil {
		d.ct.Release()
	}
	if d.acc0 != nil {
		d.ctx.PutScratch(d.acc0)
		d.ctx.PutScratch(d.acc1)
		d.acc0, d.acc1 = nil, nil
	}
	if d.cent0 != nil {
		d.ctx.PutScratch(d.cent0)
		d.ctx.PutScratch(d.cent1)
		d.cent0, d.cent1 = nil, nil
	}
}

// tensorOperand serves a deferred product's cached centered NTT forms,
// building both on first use from the residue-domain accumulators — one
// base conversion and one lazy forward-transform set per component,
// bit-identical to materializing and re-decomposing. A handle whose
// accumulators were already released (a concurrent consumer forced and
// freed it) serves the materialized ciphertext's cached forms instead.
func (d *Deferred) tensorOperand(ctx *dcrt.Context, i int) *dcrt.Poly {
	d.mu.Lock()
	if d.ctx != ctx {
		d.mu.Unlock()
		panic("bfv: Deferred used with a foreign double-CRT context")
	}
	if d.cent0 == nil && d.acc0 != nil {
		d.cent0 = ctx.CenteredNTTFromResidues(d.acc0)
		d.cent1 = ctx.CenteredNTTFromResidues(d.acc1)
	}
	if d.cent0 != nil {
		f := d.cent0
		if i == 1 {
			f = d.cent1
		}
		d.mu.Unlock()
		return f
	}
	ct := d.ct
	d.mu.Unlock()
	if ct == nil {
		panic("bfv: Deferred operand use after Release")
	}
	return ct.rnsNTT(ctx, i)
}

func (d *Deferred) acquireOperand() {
	d.mu.Lock()
	d.inUse++
	d.mu.Unlock()
}

func (d *Deferred) releaseOperand() {
	d.mu.Lock()
	d.inUse--
	if d.inUse == 0 && d.releasePending {
		d.releasePending = false
		d.freeLocked()
	}
	d.mu.Unlock()
}
