// Package dcrt implements the double-CRT (RNS + NTT) representation of
// R_q polynomials that routes the host-side BFV hot path around
// big-integer arithmetic: each polynomial is held as its residues
// modulo word-sized NTT-friendly primes (the RNS/CRT layer), and each
// residue vector is kept in the NTT domain (the second CRT layer), so
// ring multiplication is a pointwise O(n) pass per limb and the
// transforms cost O(n log n).
//
// Unlike SEAL — which *replaces* the coefficient modulus with an RNS
// modulus — this package keeps the paper's exact prime moduli q
// (27/54/109-bit): the basis is an
// *extended* basis whose product Q' is sized so that the exact integer
// (negacyclic) products never wrap, and results leave through a
// word-sized fast base conversion to mod q (baseconv.go), bit-identical
// to the schoolbook path. That makes the backend a drop-in replacement
// which the schoolbook oracle differentially validates against. A context
// exists only for moduli that conversion serves — odd q of at most 62 or
// of 65 to 124 bits, every paper modulus, over a basis of at most
// maxConvLimbs primes — and NewContext refuses the rest.
//
// Limb channels are independent, so transforms and pointwise passes are
// parallelized across a process-wide bounded worker pool; scratch
// buffers are pooled so steady-state operations allocate only their
// results. Entry into the form is one branch-free word kernel per word
// width (enterChannel). Its floor is the K forward transforms it feeds:
// at the served shape (109-bit q, n = 4096, K = 4) a traced ToRNSCentered
// takes ≈ 186 µs against 4 × 30 µs of forward transforms (2-core Xeon).
package dcrt

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/nt"
	"repro/internal/ntt"
	"repro/internal/poly"
	"repro/internal/rns"
)

// Context fixes a ring degree n, a target modulus q, and an extended RNS
// basis of NTT-friendly primes wide enough to hold every exact integer
// coefficient the BFV evaluation produces (|v| < 2^BoundBits).
type Context struct {
	N         int
	Mod       *poly.Modulus // the ring modulus q arithmetic is exact over
	Basis     *rns.Basis
	Tabs      []*ntt.Table // one shared twiddle table per basis prime
	BoundBits int

	// conv holds the fast base-conversion tables (see baseconv.go).
	conv *convState

	// fuseCap bounds how many key·digit products (on top of the
	// accumulator seed) the 128-bit fused key-switching kernels may sum
	// before the single Barrett fold: ntt.Acc128Capacity at the widest
	// basis prime — the fold is valid only below p·2⁶⁴ and the
	// per-limb capacity 2⁶⁴/(4p−1) shrinks as p grows, so the widest
	// prime binds — for a strict key operand and a lazily-reduced
	// (< 4p, the unfolded ForwardLazy bound) digit operand. Never zero:
	// NewContext refuses a basis that leaves no room for one product.
	fuseCap int

	scratch sync.Pool // *Poly buffers for transforms and accumulators
	outs    sync.Pool // *convOut slabs for the conversion kernels' outputs
	exts    sync.Map  // sub-basis length → *extState (see baseext.go)
}

// ctxKey identifies a context in the process-wide cache.
type ctxKey struct {
	q         string
	n         int
	boundBits int
}

var contexts sync.Map // ctxKey -> *Context

// GetContext returns the shared context for (mod, n, boundBits),
// constructing it on first use. Contexts are immutable after construction
// and safe for concurrent use.
func GetContext(mod *poly.Modulus, n, boundBits int) (*Context, error) {
	key := ctxKey{mod.QBig.String(), n, boundBits}
	if v, ok := contexts.Load(key); ok {
		return v.(*Context), nil
	}
	c, err := NewContext(mod, n, boundBits)
	if err != nil {
		return nil, err
	}
	v, _ := contexts.LoadOrStore(key, c)
	return v.(*Context), nil
}

// basisPrimeBits is the size of the extended-basis primes. 60-bit primes
// maximize per-limb payload while staying under modring's 2⁶² ceiling.
const basisPrimeBits = 60

// NewContext builds a context whose basis product Q' exceeds
// 2^(boundBits+3), so any integer v with |v| ≤ 2^boundBits is held
// exactly and the fast base conversion's quarter-shift fraction never
// leaves its exactness window (buildBasis). It returns an error when the
// modulus or basis shape rules the word-sized conversion out
// (newConvState: among others, more than maxConvLimbs basis primes) or
// the basis leaves the fused key-switching kernels no capacity.
func NewContext(mod *poly.Modulus, n, boundBits int) (*Context, error) {
	if n <= 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dcrt: n=%d must be a power of two > 1", n)
	}
	minRing := 2*mod.Bits() + bits.TrailingZeros(uint(n)) + 1
	if boundBits < minRing {
		// Ring products alone reach n·q²; never build a basis below that.
		boundBits = minRing
	}
	basis, err := buildBasis(n, boundBits)
	if err != nil {
		return nil, err
	}
	c := &Context{
		N:         n,
		Mod:       mod,
		Basis:     basis,
		BoundBits: boundBits,
	}
	for _, p := range basis.Primes {
		tab, err := ntt.GetTable(p, n)
		if err != nil {
			return nil, fmt.Errorf("dcrt: prime %d: %w", p, err)
		}
		c.Tabs = append(c.Tabs, tab)
	}
	c.scratch.New = func() any { return c.NewPoly() }
	if c.conv, err = newConvState(c); err != nil {
		return nil, err
	}
	c.outs.New = func() any {
		w := &convOut{lo: make([]uint64, c.N)}
		if c.conv.qr.words == 2 {
			w.hi = make([]uint64, c.N)
		}
		return w
	}
	maxP := slices.Max(basis.Primes)
	if c.fuseCap = ntt.Acc128Capacity(maxP, maxP-1, 4*maxP-1); c.fuseCap == 0 {
		return nil, fmt.Errorf("dcrt: basis prime %d leaves the fused key-switching accumulators no capacity", maxP)
	}
	return c, nil
}

// buildBasis collects NTT-friendly primes for degree n until their
// product exceeds 2^(boundBits+3). The two extra bits over the exactness
// requirement (|coeff| < Q'/2) give the fast base conversion its
// quarter-shift headroom: with |coeff| ≤ Q'/8 the shifted fraction
// (coeff + ⌊Q'/4⌋)/Q' stays in [1/8−ε, 3/8] and the fixed-point lift
// counter is exact (see baseconv.go).
func buildBasis(n, boundBits int) (*rns.Basis, error) {
	k := (boundBits+3)/(basisPrimeBits-1) + 1
	for {
		primes, err := nt.NTTPrimes(basisPrimeBits, n, k)
		if err != nil {
			return nil, fmt.Errorf("dcrt: basis for %d bits: %w", boundBits, err)
		}
		b, err := rns.NewBasis(primes)
		if err != nil {
			return nil, err
		}
		if b.Q.BitLen() > boundBits+3 {
			return b, nil
		}
		k++
	}
}

// K returns the number of limb channels.
func (c *Context) K() int { return c.Basis.K() }

// Poly is an R_q element in double-CRT form: Coeffs[limb][i] is the NTT
// image of the residues modulo the limb's prime. Values are always kept
// in the NTT (evaluation) domain between operations.
type Poly struct {
	Coeffs [][]uint64
}

// NewPoly returns the zero element (which is its own NTT image), its
// limb channels backed by one slab.
func (c *Context) NewPoly() *Poly {
	k := c.K()
	slab := make([]uint64, k*c.N)
	p := &Poly{Coeffs: make([][]uint64, k)}
	for i := range p.Coeffs {
		p.Coeffs[i] = slab[i*c.N : (i+1)*c.N]
	}
	return p
}

// Zero clears every limb channel — reset for pooled accumulators.
func (p *Poly) Zero() {
	for _, ch := range p.Coeffs {
		for i := range ch {
			ch[i] = 0
		}
	}
}

// GetScratch returns a pooled Poly with arbitrary contents — for callers
// that fully overwrite it (e.g. as a MulNTT destination) and return it
// via PutScratch, keeping steady-state evaluation allocation-free.
func (c *Context) GetScratch() *Poly { return c.scratch.Get().(*Poly) }

// PutScratch returns a Poly obtained from this context to its pool.
func (c *Context) PutScratch(p *Poly) { c.scratch.Put(p) }

// toRNS converts a coefficient-domain R_q polynomial into double-CRT
// form: its limbs are read as (lo, hi) word pairs (unpackModQ), and each
// limb channel enters (enterChannel) and transforms on the worker pool:
// the centered representatives in [−q/2, q/2] when centered, else the
// canonical ones in [0, q). The result is drawn from the scratch pool;
// a caller done with it may return it via PutScratch, and one that keeps
// it simply owns it.
func (c *Context) toRNS(p *poly.Poly, centered bool) *Poly {
	if p.N != c.N || p.W != c.Mod.W {
		panic("dcrt: polynomial shape mismatch")
	}
	w := c.getConvOut()
	defer c.putConvOut(w)
	c.unpackModQ(w.lo, w.hi, p)
	out := c.GetScratch()
	parallelFor(c.K(), func(i int) {
		c.enterChannel(out.Coeffs[i], i, w.lo, w.hi, centered)
		c.Tabs[i].Forward(out.Coeffs[i])
	})
	return out
}

// ToRNS converts p (canonical representatives) into double-CRT form.
func (c *Context) ToRNS(p *poly.Poly) *Poly { return c.toRNS(p, false) }

// ToRNSCentered converts p using centered representatives — required for
// operands of the BFV tensor product: the t/q rescaling divides the
// *integer* value, so the lift must match the schoolbook oracle's
// ToCenteredCoeffs.
func (c *Context) ToRNSCentered(p *poly.Poly) *Poly { return c.toRNS(p, true) }

// SmallToRNS writes into dst the double-CRT form of the polynomial whose
// coefficients are the small signed integers vals (|v| below every basis
// prime): each residue is v mod p_i, with no detour through a mod-q
// representative. The element is v itself, not its canonical lift; a
// product with it that leaves through FromRNS is reduced mod q there, so
// it equals the product with the lift bit for bit.
func (c *Context) SmallToRNS(dst *Poly, vals []int8) {
	if len(vals) != c.N {
		panic("dcrt: polynomial shape mismatch")
	}
	parallelFor(c.K(), func(i int) {
		p, ch := c.Basis.Primes[i], dst.Coeffs[i][:len(vals)]
		for j, v := range vals {
			ch[j] = uint64(v) + p&uint64(v>>7) // v < 0 enters as p − |v|
		}
		c.Tabs[i].Forward(ch)
	})
}

// enterChannel writes limb channel i of the element whose canonical mod-q
// coefficients are the word pairs (lo, hi) — hi nil when q fits one word —
// as u − g·q mod p_i, with g = [u > h] the borrow of h − u: h is ⌊q/2⌋
// when centered and q − 1 (so g = 0) otherwise. The residue is enterWord
// or enterPair: no branch on the data, and one loop per word width for
// every entry into double-CRT form. The residues are lazy (< 4p), the
// input bound of the forward transform that follows.
func (c *Context) enterChannel(dst []uint64, i int, lo, hi []uint64, centered bool) {
	cv := c.conv
	p, oneS, negQ := c.Basis.Primes[i], cv.oneShoup[i], cv.negQ[i]
	h0, h1 := cv.qr.q0-1, cv.qr.q1 // q is odd: no borrow
	if centered {
		h0, h1 = cv.qr.half0, cv.qr.half1
	}
	lo = lo[:len(dst)]
	if hi == nil {
		for j, u := range lo {
			dst[j] = enterWord(u, (h0-u)>>63, p, oneS, negQ) // u, h0 < 2⁶²
		}
		return
	}
	hi = hi[:len(dst)]
	t64, t64S := cv.two64[i], cv.two64Shoup[i]
	for j, uLo := range lo {
		uHi := hi[j]
		_, b := bits.Sub64(h0, uLo, 0)
		_, g := bits.Sub64(h1, uHi, b)
		dst[j] = enterPair(uLo, uHi, g, p, oneS, t64, t64S, negQ)
	}
}

// enterWord returns u − g·q mod p, below 3p, for a word u and g ∈ {0, 1},
// from the Shoup companion of 1 (oneS) and −q mod p (negQ).
func enterWord(u, g, p, oneS, negQ uint64) uint64 {
	qh, _ := bits.Mul64(u, oneS)
	return u - qh*p + negQ&-g
}

// enterPair is enterWord for u = lo + 2⁶⁴·hi, with hi entering through
// 2⁶⁴ mod p (t64, Shoup companion t64S): the sum is below 5p, and one
// masked subtraction of 4p brings it under the transform's input bound.
func enterPair(lo, hi, g, p, oneS, t64, t64S, negQ uint64) uint64 {
	q1, _ := bits.Mul64(lo, oneS)
	q2, _ := bits.Mul64(hi, t64S)
	return condSub(lo+hi*t64-(q1+q2)*p+negQ&-g, 4*p)
}

// FromRNS is FromRNSInto a freshly allocated polynomial.
func (c *Context) FromRNS(p *Poly) *poly.Poly {
	out := poly.NewPoly(c.N, c.Mod.W)
	c.FromRNSInto(out, p)
	return out
}

// FromRNSInto leaves the NTT domain and reduces mod q through the
// word-sized fast base conversion, packing the result into dst, a
// coefficient-domain R_q polynomial whose every word it overwrites.
// Because the basis never wraps, this equals the schoolbook result
// bit-for-bit.
func (c *Context) FromRNSInto(dst *poly.Poly, p *Poly) {
	tmp := c.inttLazy(p)
	defer c.PutScratch(tmp)
	c.FromResidues(dst, tmp)
}

// FromResidues is the residue-domain tail of FromRNSInto: it
// base-converts an element already in the residue (coefficient) domain —
// e.g. a deferred product accumulator — to mod q and packs it into dst.
// Limb values may be lazily reduced (< 2p).
func (c *Context) FromResidues(dst *poly.Poly, p *Poly) {
	if dst.N != c.N || dst.W != c.Mod.W {
		panic("dcrt: polynomial shape mismatch")
	}
	w := c.getConvOut()
	defer c.putConvOut(w)
	c.convModQ(p, &c.conv.unit, w.lo, w.hi)
	c.packModQ(dst, w.lo, w.hi)
}

// ToResidues returns a pooled copy of p transformed from the NTT domain
// to the residue (coefficient) domain with canonical (< p) values.
// Callers return the element via PutScratch.
func (c *Context) ToResidues(p *Poly) *Poly {
	tmp := c.GetScratch()
	parallelFor(c.K(), func(i int) {
		copy(tmp.Coeffs[i], p.Coeffs[i])
		c.Tabs[i].Inverse(tmp.Coeffs[i])
	})
	return tmp
}

// IntoResiduesLazyLimbs inverse-transforms the first `limbs` limb
// channels of p in place (lazily, < 2p) — for accumulators the caller
// owns outright, where the copy a pooled intt would make is waste.
func (c *Context) IntoResiduesLazyLimbs(p *Poly, limbs int) {
	parallelFor(limbs, func(i int) {
		c.Tabs[i].InverseLazy(p.Coeffs[i])
	})
}

// inttLazy is intt with lazily-reduced outputs (< 2p): the inverse
// transform's final scaling skips its conditional subtraction. Valid for
// consumers whose next step is a Shoup or Barrett multiplication — the
// base-conversion γ pass and the scale-and-round division — which reduce
// exactly for any word-sized input.
func (c *Context) inttLazy(p *Poly) *Poly {
	tmp := c.GetScratch()
	parallelFor(c.K(), func(i int) {
		copy(tmp.Coeffs[i], p.Coeffs[i])
		c.Tabs[i].InverseLazy(tmp.Coeffs[i])
	})
	return tmp
}

// AddNTT sets dst = a + b (pointwise in every limb). dst may alias a or b.
func (c *Context) AddNTT(dst, a, b *Poly) {
	parallelFor(c.K(), func(i int) {
		r := c.Tabs[i].R
		da, db, dd := a.Coeffs[i], b.Coeffs[i], dst.Coeffs[i]
		for j := range dd {
			dd[j] = r.Add(da[j], db[j])
		}
	})
}

// MulNTT sets dst = a·b (pointwise in every limb — the O(n)-per-limb ring
// multiplication the representation exists for). dst may alias a or b.
func (c *Context) MulNTT(dst, a, b *Poly) {
	parallelFor(c.K(), func(i int) {
		c.Tabs[i].PointwiseMul(dst.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
}

// MulShoupLazyNTT sets dst = a·w pointwise with wS = ShoupConsts(w) —
// the tensor product against an operand whose Shoup companions are
// cached (repeat multiplicands). a may be lazily reduced; outputs are
// lazy (< 2p), which every rescale consumer accepts. dst may alias.
func (c *Context) MulShoupLazyNTT(dst, a, w, wS *Poly) {
	parallelFor(c.K(), func(i int) {
		ntt.MulShoupLazyVec(c.Tabs[i].R, dst.Coeffs[i], a.Coeffs[i], w.Coeffs[i], wS.Coeffs[i])
	})
}

// MulPairAddShoupLazyNTT sets dst = a0·w0 + a1·w1 pointwise with both
// fixed operands' Shoup companions cached — the middle tensor component
// against a repeat multiplicand. Outputs are lazy (< 2p). dst may alias.
func (c *Context) MulPairAddShoupLazyNTT(dst, a0, w0, w0s, a1, w1, w1s *Poly) {
	parallelFor(c.K(), func(i int) {
		ntt.MulPairAddShoupLazyVec(c.Tabs[i].R, dst.Coeffs[i],
			a0.Coeffs[i], w0.Coeffs[i], w0s.Coeffs[i],
			a1.Coeffs[i], w1.Coeffs[i], w1s.Coeffs[i])
	})
}

// AddLazyNTT sets dst = a + b for lazily-reduced operands (< 2p),
// maintaining the < 2p bound with a single conditional subtraction of 2p
// — the deferred-accumulator addition, whose operands come from
// InverseLazy without a strict reduction pass. dst may alias a or b.
func (c *Context) AddLazyNTT(dst, a, b *Poly) {
	parallelFor(c.K(), func(i int) {
		twoP := 2 * c.Tabs[i].R.Q
		da, db, dd := a.Coeffs[i], b.Coeffs[i], dst.Coeffs[i]
		da = da[:len(dd)]
		db = db[:len(dd)]
		for j := range dd {
			s := da[j] + db[j]
			if s >= twoP {
				s -= twoP
			}
			dd[j] = s
		}
	})
}

// MulPairAddNTT sets dst = a0·b0 + a1·b1 pointwise — the middle tensor
// component c0·c1' + c1·c0' in one memory pass: both products accumulate
// in 128 bits and fold with a single Barrett reduction per slot, instead
// of a MulNTT pass followed by a MulAddNTT pass. Operands may be lazily
// reduced (< 4p): each folds below 2p in a register first, keeping the
// two-product sum 8p² inside the reduction's p·2⁶⁴ validity window for
// the ≤ 60-bit basis primes. dst may alias any operand.
func (c *Context) MulPairAddNTT(dst, a0, b0, a1, b1 *Poly) {
	parallelFor(c.K(), func(i int) {
		ntt.MulPairAddVec(c.Tabs[i].R, dst.Coeffs[i],
			a0.Coeffs[i], b0.Coeffs[i], a1.Coeffs[i], b1.Coeffs[i])
	})
}

// MulAddNTT sets dst += a·b pointwise — the key-switching accumulator:
// digit×key products stay in the NTT domain and only the final sum pays
// an inverse transform.
func (c *Context) MulAddNTT(dst, a, b *Poly) {
	parallelFor(c.K(), func(i int) {
		r := c.Tabs[i].R
		da, db, dd := a.Coeffs[i], b.Coeffs[i], dst.Coeffs[i]
		for j := range dd {
			dd[j] = r.Add(dd[j], r.Mul(da[j], db[j]))
		}
	})
}

// ShoupConsts returns the per-slot Shoup companions ⌊a[j]·2⁶⁴/p_i⌋ of a
// — precomputed once for immutable operands (key-switching keys) so the
// accumulation inner loops run Shoup multiplications instead of Barrett
// reductions. The companion is only valid for the element it was built
// from. It is drawn from the scratch pool, like toRNS's result.
func (c *Context) ShoupConsts(a *Poly) *Poly {
	out := c.GetScratch()
	parallelFor(c.K(), func(i int) {
		r := c.Tabs[i].R
		da, dd := a.Coeffs[i], out.Coeffs[i]
		for j := range dd {
			dd[j] = r.ShoupConst(da[j])
		}
	})
	return out
}

// maxFusedChunk caps the per-call digit fan-in of the fused key-switching
// kernels: chunks of at most this many digits (and at most fuseCap, the
// Barrett-domain bound — Acc128Capacity already budgets the sub-2⁶⁴
// accumulator seed) share one fold. 32 covers every paper parameter set
// in a single chunk while keeping the kernel's slice headers on the
// stack.
const maxFusedChunk = 32

// MulPairAllNTT sets both component accumulators to a whole key-switching
// digit sum in one memory pass:
//
//	acc0 = Σ_d k0[d]·digits[d],  acc1 = Σ_d k1[d]·digits[d]
//
// with the per-slot digit sums accumulated lazily in 128 bits and folded
// by a single Barrett reduction (ntt.MulPair128/MulAddPair128) — one
// reduction per slot per component instead of one per digit. Digits may
// be lazily reduced (DigitsToRNS emits < 2p); keys are canonical. Results
// are bit-identical to a per-digit MulAddNTT loop from zero. Uses at
// most min(len(digits), len(k0)) digits.
func (c *Context) MulPairAllNTT(acc0, acc1 *Poly, k0, k1, digits []*Poly) {
	c.MulPairLimbsNTT(acc0, acc1, k0, k1, digits, c.K())
}

// MulPairLimbsNTT is MulPairAllNTT restricted to the first `limbs` limb
// channels — the sub-basis key switch, whose accumulator is extended to
// the remaining channels afterwards (ExtendResidues).
func (c *Context) MulPairLimbsNTT(acc0, acc1 *Poly, k0, k1, digits []*Poly, limbs int) {
	nd := min(len(digits), len(k0))
	if nd == 0 {
		acc0.Zero()
		acc1.Zero()
		return
	}
	chunk := c.fuseCap
	if chunk > maxFusedChunk {
		chunk = maxFusedChunk
	}
	parallelFor(limbs, func(i int) {
		r := c.Tabs[i].R
		var b0, b1, bd [maxFusedChunk][]uint64
		for lo := 0; lo < nd; lo += chunk {
			hi := lo + chunk
			if hi > nd {
				hi = nd
			}
			for d := lo; d < hi; d++ {
				b0[d-lo] = k0[d].Coeffs[i]
				b1[d-lo] = k1[d].Coeffs[i]
				bd[d-lo] = digits[d].Coeffs[i]
			}
			m := hi - lo
			if lo == 0 {
				ntt.MulPair128(r, acc0.Coeffs[i], acc1.Coeffs[i], b0[:m], b1[:m], bd[:m])
			} else {
				ntt.MulAddPair128(r, acc0.Coeffs[i], acc1.Coeffs[i], b0[:m], b1[:m], bd[:m])
			}
		}
	})
}

// MulRq returns a·b in R_q via the double-CRT path: both operands enter
// the extended basis, multiply pointwise, and the exact integer product
// is recombined and reduced mod q. TestMulRqMatchesSchoolbook holds it
// bit for bit to poly.MulNegacyclic, the oracle's Kronecker product.
func (c *Context) MulRq(a, b *poly.Poly) *poly.Poly {
	ra := c.ToRNS(a)
	rb := c.ToRNS(b)
	defer c.PutScratch(ra)
	defer c.PutScratch(rb)
	c.MulNTT(ra, ra, rb)
	return c.FromRNS(ra)
}
