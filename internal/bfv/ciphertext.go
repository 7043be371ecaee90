package bfv

import (
	"fmt"
	"sync"

	"repro/internal/dcrt"
	"repro/internal/poly"
)

// Plaintext is a polynomial with coefficients in [0, T).
type Plaintext struct {
	Coeffs []uint64 // length N, values < T
}

// NewPlaintext returns an all-zero plaintext for the parameter set.
func NewPlaintext(params *Parameters) *Plaintext {
	return &Plaintext{Coeffs: make([]uint64, params.N)}
}

// Value is a ciphertext in whichever form the evaluator produced it:
// materialized (*Ciphertext) or deferred (*Deferred — exact
// extended-basis accumulators whose base conversions have not run yet,
// in the residue domain for products and the NTT domain for rotations).
// Deferred values fuse sums within their domain and products chain into
// multiplications; every form materializes to the same bits.
type Value interface {
	// Materialize returns the coefficient-domain ciphertext. A deferred
	// value converts once, caches the result, and returns its
	// accumulators to the scratch pool.
	Materialize() *Ciphertext
	// Release returns the memory the value owns: a deferred value's
	// accumulators and its materialized ciphertext, a ciphertext's
	// backings and cached NTT forms (see Ciphertext.Release). The value
	// must not be used afterwards.
	Release()
}

// Ciphertext is a BFV ciphertext: a list of polynomials in R_q. Fresh
// ciphertexts have degree 1 (two polynomials); an unrelinearized product
// has degree 2 (three polynomials).
//
// Ciphertexts evaluated on the double-CRT backend are NTT-resident: the
// centered double-CRT form of each component is built lazily on first
// use and cached, so chained Mul/Rotate (and squarings, which consume
// the same component twice) never repeat the decompose + forward-NTT
// round trip. The cache assumes Polys are immutable once the ciphertext
// has been evaluated — every evaluator operation returns a fresh
// ciphertext, and Clone (the mutate-after-copy escape hatch) drops the
// cache. The cached forms come from the dcrt scratch pool and go back on
// Release.
//
// A ciphertext remembers the BackingAllocator its component backings
// came from — ReadCiphertextBacked's, or the Alloc of the Evaluator that
// produced it — and Release returns them there. Fresh encryptions and
// Clones live on the heap.
type Ciphertext struct {
	Polys []*poly.Poly

	alloc BackingAllocator // where the Polys' backings return; nil: the heap
	ntt   nttCache
}

// newPolyFrom returns a polynomial of n coefficients at width w backed
// by alloc — undefined contents, which the caller overwrites — or, with
// a nil alloc, a fresh zeroed allocation.
func newPolyFrom(alloc BackingAllocator, n, w int) *poly.Poly {
	if alloc == nil {
		return poly.NewPoly(n, w)
	}
	return poly.NewPolyBacked(n, w, alloc.Get(n*w))
}

// newCiphertextFrom returns a ciphertext of k components under par whose
// backings come from alloc (see newPolyFrom) and return there on Release.
func newCiphertextFrom(alloc BackingAllocator, par *Parameters, k int) *Ciphertext {
	ct := &Ciphertext{Polys: make([]*poly.Poly, k), alloc: alloc}
	for i := range ct.Polys {
		ct.Polys[i] = newPolyFrom(alloc, par.N, par.Q.W)
	}
	return ct
}

// nttCache lazily holds the NTT-resident centered double-CRT forms of a
// ciphertext's components for one dcrt context. Each form remembers the
// polynomial it was built from, so swapping a component in ct.Polys
// invalidates its entry structurally; only in-place mutation of a
// component's limbs remains covered by the immutability convention.
//
// Components that keep being multiplied (chained products consuming the
// same operand, shared weights in a dot product) additionally cache the
// per-slot Shoup companions of their form: the companions cost a
// hardware division per slot to build, so they are only constructed once
// a component's form has been requested for a second multiplication —
// single-use operands never pay for them.
type nttCache struct {
	mu     sync.Mutex
	ctx    *dcrt.Context
	forms  []*dcrt.Poly
	srcs   []*poly.Poly
	shoups []*dcrt.Poly
	uses   []int
}

// rnsNTT returns the cached centered double-CRT form of component i,
// building it on first use. Safe for concurrent use; a concurrent
// builder of another component of the same ciphertext serializes behind
// the per-ciphertext lock.
func (ct *Ciphertext) rnsNTT(ctx *dcrt.Context, i int) *dcrt.Poly {
	f, _ := ct.rnsNTTUse(ctx, i, false)
	return f
}

// rnsNTTShoup is rnsNTT returning the form's Shoup companions as well —
// nil until the component has been requested at least twice, after which
// they are built and cached (see nttCache).
func (ct *Ciphertext) rnsNTTShoup(ctx *dcrt.Context, i int) (form, shoup *dcrt.Poly) {
	return ct.rnsNTTUse(ctx, i, true)
}

func (ct *Ciphertext) rnsNTTUse(ctx *dcrt.Context, i int, wantShoup bool) (form, shoup *dcrt.Poly) {
	ct.ntt.mu.Lock()
	defer ct.ntt.mu.Unlock()
	if ct.ntt.ctx != ctx || len(ct.ntt.forms) != len(ct.Polys) {
		ct.ntt.ctx = ctx
		ct.ntt.forms = make([]*dcrt.Poly, len(ct.Polys))
		ct.ntt.srcs = make([]*poly.Poly, len(ct.Polys))
		ct.ntt.shoups = make([]*dcrt.Poly, len(ct.Polys))
		ct.ntt.uses = make([]int, len(ct.Polys))
	}
	if ct.ntt.forms[i] == nil || ct.ntt.srcs[i] != ct.Polys[i] {
		ct.ntt.forms[i] = ctx.ToRNSCentered(ct.Polys[i])
		ct.ntt.srcs[i] = ct.Polys[i]
		ct.ntt.shoups[i] = nil
		ct.ntt.uses[i] = 0
	}
	if wantShoup {
		ct.ntt.uses[i]++
		if ct.ntt.shoups[i] == nil && ct.ntt.uses[i] >= 2 {
			ct.ntt.shoups[i] = ctx.ShoupConsts(ct.ntt.forms[i])
		}
	}
	return ct.ntt.forms[i], ct.ntt.shoups[i]
}

// Materialize returns ct itself: a ciphertext is the materialized Value.
func (ct *Ciphertext) Materialize() *Ciphertext { return ct }

// Release returns the ciphertext's memory: its component backings to
// the allocator they came from, and its cached NTT forms and Shoup
// companions to the dcrt scratch pool. A ciphertext with backings from
// an allocator is left with no components; a heap one keeps them and
// only drops its cache, so releasing it is harmless. Releasing twice
// returns nothing twice. The caller must ensure nothing else is reading
// the ciphertext.
func (ct *Ciphertext) Release() {
	ct.ntt.mu.Lock()
	defer ct.ntt.mu.Unlock()
	if ct.alloc != nil {
		for _, p := range ct.Polys {
			ct.alloc.Put(p.C)
		}
		ct.Polys, ct.alloc = nil, nil
	}
	for i, f := range ct.ntt.forms {
		if f != nil {
			ct.ntt.ctx.PutScratch(f)
		}
		if s := ct.ntt.shoups[i]; s != nil {
			ct.ntt.ctx.PutScratch(s)
		}
	}
	ct.ntt.ctx, ct.ntt.forms, ct.ntt.srcs, ct.ntt.shoups, ct.ntt.uses = nil, nil, nil, nil, nil
}

// Degree returns len(Polys) - 1.
func (ct *Ciphertext) Degree() int { return len(ct.Polys) - 1 }

// Clone returns a deep copy.
func (ct *Ciphertext) Clone() *Ciphertext {
	out := &Ciphertext{Polys: make([]*poly.Poly, len(ct.Polys))}
	for i, p := range ct.Polys {
		out.Polys[i] = p.Clone()
	}
	return out
}

// Equal reports bitwise equality of two ciphertexts.
func (ct *Ciphertext) Equal(o *Ciphertext) bool {
	if len(ct.Polys) != len(o.Polys) {
		return false
	}
	for i := range ct.Polys {
		if !ct.Polys[i].Equal(o.Polys[i]) {
			return false
		}
	}
	return true
}

func (ct *Ciphertext) String() string {
	if len(ct.Polys) == 0 {
		return "Ciphertext{empty}"
	}
	return fmt.Sprintf("Ciphertext{degree=%d, N=%d, W=%d}",
		ct.Degree(), ct.Polys[0].N, ct.Polys[0].W)
}
