// Package dcrt implements the double-CRT (RNS + NTT) representation of
// R_q polynomials that routes the host-side BFV hot path around the
// O(n²·W²) limb schoolbook: each polynomial is held as its residues
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
// which the metered schoolbook (PIM-simulator cost model) differentially
// validates against. A context exists only for moduli that conversion
// serves — odd q of at most 62 or of 65 to 124 bits, every paper modulus
// — and NewContext refuses the rest.
//
// Limb channels are independent, so transforms and pointwise passes are
// parallelized across a process-wide bounded worker pool; scratch
// buffers are pooled so steady-state operations allocate only their
// results.
package dcrt

import (
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/limb32"
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

	halfQ      limb32.Nat // floor(q/2) as limbs, for centered decomposition
	qModP      []uint64   // q mod p_i
	two32      []uint64   // 2^32 mod p_i, for limb-wise residue folding
	two32Shoup []uint64

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
	u64s    sync.Pool // *[]uint64 length-N slabs for the conversion kernels
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
// modulus shape rules the word-sized conversion out (newConvState) or the
// basis leaves the fused key-switching kernels no capacity.
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
		halfQ:     limb32.FromBig(mod.Half, mod.W),
	}
	for _, p := range basis.Primes {
		tab, err := ntt.GetTable(p, n)
		if err != nil {
			return nil, fmt.Errorf("dcrt: prime %d: %w", p, err)
		}
		c.Tabs = append(c.Tabs, tab)
		r := tab.R
		qp := new(big.Int).Mod(mod.QBig, new(big.Int).SetUint64(p)).Uint64()
		c.qModP = append(c.qModP, qp)
		t32 := (uint64(1) << 32) % p
		c.two32 = append(c.two32, t32)
		c.two32Shoup = append(c.two32Shoup, r.ShoupConst(t32))
	}
	c.scratch.New = func() any { return c.newPoly() }
	c.u64s.New = func() any {
		s := make([]uint64, c.N)
		return &s
	}
	if c.conv, err = newConvState(c); err != nil {
		return nil, err
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

// newPoly allocates a zero element with backing storage in one slab.
func (c *Context) newPoly() *Poly {
	k := c.K()
	slab := make([]uint64, k*c.N)
	p := &Poly{Coeffs: make([][]uint64, k)}
	for i := range p.Coeffs {
		p.Coeffs[i] = slab[i*c.N : (i+1)*c.N]
	}
	return p
}

// NewPoly returns the zero element (which is its own NTT image).
func (c *Context) NewPoly() *Poly { return c.newPoly() }

// Zero clears every limb channel — reset for pooled accumulators.
func (p *Poly) Zero() {
	for _, ch := range p.Coeffs {
		for i := range ch {
			ch[i] = 0
		}
	}
}

// getScratch returns a pooled Poly; contents are arbitrary.
func (c *Context) getScratch() *Poly { return c.scratch.Get().(*Poly) }

// GetScratch returns a pooled Poly with arbitrary contents — for callers
// that fully overwrite it (e.g. as a MulNTT destination) and return it
// via PutScratch, keeping steady-state evaluation allocation-free.
func (c *Context) GetScratch() *Poly { return c.getScratch() }

// PutScratch returns a Poly obtained from this context to its pool.
func (c *Context) PutScratch(p *Poly) { c.scratch.Put(p) }

// reduceCoeff folds the W-limb little-endian coefficient at limbs into a
// residue modulo prime i, scanning limbs most-significant first:
// r ← r·2³² + limb (mod p).
func (c *Context) reduceCoeff(limbs []uint32, i int) uint64 {
	r := c.Tabs[i].R
	t32, t32s := c.two32[i], c.two32Shoup[i]
	var acc uint64
	for j := len(limbs) - 1; j >= 0; j-- {
		acc = r.Add(r.MulShoup(acc, t32, t32s), uint64(limbs[j]))
	}
	return acc
}

// decompose fills dst's limb channel i with p's residues, using the
// canonical representatives in [0, q) when centered is false, or the
// centered representatives in [-q/2, q/2] (values above q/2 shifted down
// by q) when centered is true. Centered decomposition is what the BFV
// tensor product requires: the t/q rescaling divides the *integer* value,
// so the lift must match the schoolbook oracle's ToCenteredCoeffs.
func (c *Context) decompose(dst *Poly, p *poly.Poly, i int, centered bool) {
	r := c.Tabs[i].R
	out := dst.Coeffs[i]
	qp := c.qModP[i]
	for j := 0; j < c.N; j++ {
		limbs := p.C[j*p.W : (j+1)*p.W]
		v := c.reduceCoeff(limbs, i)
		if centered && limb32.Cmp(limb32.Nat(limbs), c.halfQ, nil) > 0 {
			v = r.Sub(v, qp)
		}
		out[j] = v
	}
}

// toRNS converts a coefficient-domain R_q polynomial into double-CRT
// form, performing the per-limb residue folding and forward NTT on the
// worker pool.
func (c *Context) toRNS(p *poly.Poly, centered bool) *Poly {
	if p.N != c.N || p.W != c.Mod.W {
		panic("dcrt: polynomial shape mismatch")
	}
	out := c.newPoly()
	parallelFor(c.K(), func(i int) {
		c.decompose(out, p, i, centered)
		c.Tabs[i].Forward(out.Coeffs[i])
	})
	return out
}

// ToRNS converts p (canonical representatives) into double-CRT form.
func (c *Context) ToRNS(p *poly.Poly) *Poly { return c.toRNS(p, false) }

// ToRNSCentered converts p using centered representatives — required for
// operands of the BFV tensor product (see decompose).
func (c *Context) ToRNSCentered(p *poly.Poly) *Poly { return c.toRNS(p, true) }

// FromRNS leaves the NTT domain and reduces mod q through the word-sized
// fast base conversion, packing the result into a coefficient-domain R_q
// polynomial. Because the basis never wraps, this equals the schoolbook
// result bit-for-bit.
func (c *Context) FromRNS(p *Poly) *poly.Poly {
	tmp := c.inttLazy(p)
	defer c.PutScratch(tmp)
	return c.FromResidues(tmp)
}

// FromResidues is the residue-domain tail of FromRNS: it base-converts an
// element already in the residue (coefficient) domain — e.g. a deferred
// product accumulator — to mod q and packs it. Limb values may be lazily
// reduced (< 2p).
func (c *Context) FromResidues(p *Poly) *poly.Poly {
	uLo := c.getU64()
	defer c.putU64(uLo)
	var hi []uint64
	if c.conv.qr.words == 2 {
		uHi := c.getU64()
		defer c.putU64(uHi)
		hi = *uHi
	}
	c.convModQ(p, *uLo, hi)
	out := poly.NewPoly(c.N, c.Mod.W)
	c.packModQ(out, *uLo, hi)
	return out
}

// ToResidues returns a pooled copy of p transformed from the NTT domain
// to the residue (coefficient) domain with canonical (< p) values.
// Callers return the element via PutScratch.
func (c *Context) ToResidues(p *Poly) *Poly {
	tmp := c.getScratch()
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
	tmp := c.getScratch()
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
// from.
func (c *Context) ShoupConsts(a *Poly) *Poly {
	out := c.newPoly()
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
// is recombined and reduced mod q. Bit-identical to poly.MulNegacyclic.
func (c *Context) MulRq(a, b *poly.Poly) *poly.Poly {
	ra := c.ToRNS(a)
	rb := c.ToRNS(b)
	c.MulNTT(ra, ra, rb)
	return c.FromRNS(ra)
}
