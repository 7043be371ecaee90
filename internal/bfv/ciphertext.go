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
// materialized (*Ciphertext) or deferred (*RotatedNTT, *ProductNTT —
// exact extended-basis accumulators whose base conversions have not run
// yet). Deferred values fuse sums and chain into multiplications in
// their resident domain; every form materializes to the same bits.
type Value interface {
	// Materialize returns the coefficient-domain ciphertext. A deferred
	// value converts once, caches the result, and returns its
	// accumulators to the scratch pool.
	Materialize() *Ciphertext
	// Release returns a deferred value's accumulators to the scratch
	// pool without materializing it; the value must not be used for
	// first-time Materialize afterwards.
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
// cache.
type Ciphertext struct {
	Polys []*poly.Poly

	ntt nttCache
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

// Release is a no-op: a ciphertext holds no pooled scratch.
func (ct *Ciphertext) Release() {}

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
