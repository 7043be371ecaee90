package bfv

import (
	"errors"
	"sync"

	"repro/internal/dcrt"
	"repro/internal/poly"
)

// Hoisted rotations: ApplyGalois pays one digit decomposition of c1 —
// limb shifts plus a forward-transform set per digit, the dominant
// forward-NTT cost of a rotation — for every Galois element. Because the
// decompose-then-permute convention (see ApplyGalois) makes the digit
// set independent of g, that decomposition can be computed once and
// reused: k rotations of one ciphertext cost 1 decomposition instead of
// k, with each extra element paying only slot gathers, pointwise
// products, and the output conversions. This is the standard hoisting
// trick, and because per-rotation ApplyGalois uses the same digits, the
// hoisted outputs are bit-identical to it.

// Hoisted caches the double-CRT digit decomposition of a degree-1
// ciphertext's c1 component for reuse across Galois elements. The cache
// is keyed to the exact component polynomial it was built from: if the
// ciphertext is mutated by swapping a component (the only mutation the
// evaluation layer's immutability convention permits), the stale digits
// are detected and rebuilt rather than served — the old buffers return
// to the scratch pool. A Hoisted is safe for concurrent
// ApplyGaloisHoisted calls (each snapshots the digit set under the
// handle's lock) as long as the ciphertext is not mutated and Release is
// not called while rotations are in flight — the same convention the
// per-ciphertext NTT cache follows.
type Hoisted struct {
	ct  *Ciphertext
	ctx *dcrt.Context // nil when built by a schoolbook evaluator

	mu     sync.Mutex
	src    *poly.Poly // ct.Polys[1] at decomposition time
	digits []*dcrt.Poly
}

// Hoist decomposes ct's c1 component into double-CRT digit form, shared
// by all subsequent ApplyGaloisHoisted calls. On the schoolbook
// evaluator, which cannot hoist, the returned handle transparently falls
// back to per-rotation ApplyGalois — results are bit-identical either
// way.
func (ev *Evaluator) Hoist(ct *Ciphertext) (*Hoisted, error) {
	if ct.Degree() != 1 {
		return nil, errors.New("bfv: Hoist requires a degree-1 ciphertext")
	}
	h := &Hoisted{ct: ct}
	if ev.useDCRT() {
		h.ctx = ev.params.dcrtCtx
		h.decompose(ev.params)
	}
	return h, nil
}

// decompose (re)builds the digit cache from the current c1 component,
// returning any previous digit set to the scratch pool. Callers hold
// h.mu (or have exclusive access during construction).
func (h *Hoisted) decompose(par *Parameters) {
	h.putDigits()
	h.src = h.ct.Polys[1]
	h.digits = h.ctx.DigitsToRNS(h.src, par.RelinBaseBits, par.RelinDigits())
}

func (h *Hoisted) putDigits() {
	for _, d := range h.digits {
		h.ctx.PutScratch(d)
	}
	h.digits = nil
	h.src = nil
}

// snapshot returns the current digit set, rebuilding first if the
// ciphertext's component was swapped since decomposition — stale digits
// are never served. The returned slice is immutable once built; holding
// it outside the lock is safe under the handle's concurrency convention.
func (h *Hoisted) snapshot(par *Parameters) []*dcrt.Poly {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.src != h.ct.Polys[1] || h.digits == nil {
		h.decompose(par)
	}
	return h.digits
}

// Release returns the cached digit forms to the context's scratch pool.
// Call it when the hoisted handle is no longer needed to keep
// steady-state batched evaluation allocation-free; the handle must not
// be used afterwards.
func (h *Hoisted) Release() {
	if h.ctx == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.putDigits()
}

// ApplyGaloisHoisted is ApplyGalois reusing the hoisted digit
// decomposition: bit-identical output, with the per-rotation cost
// reduced to slot gathers, pointwise accumulation, and the output
// conversions. A handle whose ciphertext was mutated since Hoist (a
// swapped component) is re-decomposed, never served stale.
func (ev *Evaluator) ApplyGaloisHoisted(h *Hoisted, gk *GaloisKey) (*Ciphertext, error) {
	if gk == nil {
		return nil, errors.New("bfv: nil Galois key")
	}
	if h.ctx == nil || !ev.useDCRT() {
		return ev.ApplyGalois(h.ct, gk)
	}
	par := ev.params
	digits := h.snapshot(par)
	out := ev.newCiphertext(2)
	applyGaloisPoly(out.Polys[0], h.ct.Polys[0], gk.G, par.Q)
	ev.galoisKeySwitch(h.ctx, out.Polys[0], out.Polys[1], digits, gk)
	return out, nil
}
