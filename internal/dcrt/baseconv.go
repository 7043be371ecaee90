// Fast exact base conversion out of the extended RNS basis.
//
// The BEHZ/HPS-style conversion computes, for an integer X held as
// residues x_i over the basis primes p_i, the value X mod q for the ring
// modulus q — entirely in word arithmetic. Writing γ_i = [x_i·(Q'/p_i)⁻¹
// mod p_i], the CRT gives X = Σ γ_i·(Q'/p_i) − e·Q' for a small lift
// counter e = ⌊Σ γ_i/p_i⌋ < k, so
//
//	X mod q = ( Σ γ_i·[(Q'/p_i) mod q] − e·[Q' mod q] ) mod q .
//
// The only hazard is e: the classic approximate conversion estimates the
// sum Σ γ_i/p_i in fixed point and can be off by one when the fractional
// part X/Q' lands near 0 or 1. Instead of absorbing that error into
// noise (this backend must stay bit-identical to the schoolbook oracle),
// the kernel converts the shifted value Z = X + δ with δ = ⌊Q'/4⌋ and
// subtracts δ mod q afterwards. The Context sizes the basis so
// |X| ≤ 2^BoundBits ≤ Q'/8, which pins frac(Z/Q') into [1/8−ε, 3/8] —
// while the fixed-point estimate Σ ⌊γ_i·⌊2⁹⁶/p_i⌋/2³²⌋ undershoots
// Σ γ_i·2⁶⁴/p_i by less than k·(2²⁸+1) ≪ 2⁶⁴/8. The floor of the
// estimate therefore always equals e: the "approximate" conversion is
// exact for every value the evaluator produces.
package dcrt

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"

	"repro/internal/poly"
)

// convState holds the precomputed tables of the fast base conversion
// basis → q. Every Context has one: NewContext refuses modulus shapes the
// word-sized path cannot serve (see newConvState).
type convState struct {
	qr *qring

	// Per-prime: ω_i = (Q'/p_i)⁻¹ mod p_i with Shoup companion, the
	// fixed-point constant ν_i = ⌊2⁹⁶/p_i⌋, δ mod p_i, and q⁻¹ mod p_i
	// (the exact-division constant of the scale-and-round step).
	omega, omegaShoup []uint64
	nu                []uint64
	deltaP            []uint64
	qInvP, qInvPShoup []uint64

	// Per-prime (Q'/p_i) mod q and the lift table (e·Q' + δ) mod q for
	// e = 0..k, both as (lo, hi) word pairs.
	cLo, cHi []uint64
	eLo, eHi []uint64

	// remFits[i] reports q ≤ p_i for a one-word q: a mod-q remainder
	// magnitude is then already a canonical residue in limb channel i and
	// the per-coefficient ReduceWide fold is skipped.
	remFits []bool

	rounders sync.Map // t (uint64) → *ScaleRounder
}

// newConvState builds the conversion tables, or returns an error when the
// modulus or basis shape rules the word-sized path out (q even, 63/64
// bits, above 2¹²⁴, sharing a factor with a basis prime, or basis primes
// too narrow for the ν trick).
func newConvState(c *Context) (*convState, error) {
	qr, err := newQring(c.Mod.QBig)
	if err != nil {
		return nil, err
	}
	k := c.K()
	cv := &convState{qr: qr}
	q := c.Mod.QBig
	delta := new(big.Int).Rsh(c.Basis.Q, 2)
	t := new(big.Int)
	for i, p := range c.Basis.Primes {
		nu := c.Basis.Nu96(i)
		if nu == 0 {
			return nil, fmt.Errorf("dcrt: basis prime %d ≤ 2³² is too narrow for the fixed-point lift", p)
		}
		inv, shoup := c.Basis.QHatInv(i)
		cv.omega = append(cv.omega, inv)
		cv.omegaShoup = append(cv.omegaShoup, shoup)
		cv.nu = append(cv.nu, nu)
		pb := new(big.Int).SetUint64(p)
		cv.deltaP = append(cv.deltaP, t.Mod(delta, pb).Uint64())
		qInv := new(big.Int).ModInverse(t.Mod(q, pb), pb)
		if qInv == nil {
			return nil, fmt.Errorf("dcrt: modulus q shares a factor with basis prime %d", p)
		}
		cv.qInvP = append(cv.qInvP, qInv.Uint64())
		cv.qInvPShoup = append(cv.qInvPShoup, c.Tabs[i].R.ShoupConst(qInv.Uint64()))
		t.Mod(c.Basis.QHat(i), q)
		cv.cLo = append(cv.cLo, bigWord(t, 0))
		cv.cHi = append(cv.cHi, bigWord(t, 1))
		cv.remFits = append(cv.remFits, qr.words == 1 && qr.q0 <= p)
	}
	for e := 0; e <= k; e++ {
		t.Mul(big.NewInt(int64(e)), c.Basis.Q)
		t.Add(t, delta)
		t.Mod(t, q)
		cv.eLo = append(cv.eLo, bigWord(t, 0))
		cv.eHi = append(cv.eHi, bigWord(t, 1))
	}
	return cv, nil
}

// RNSNative reports whether this context leaves the RNS domain through
// the word-sized fast base conversion — always true for a context
// NewContext returned, which refuses every other modulus shape.
func (c *Context) RNSNative() bool { return c.conv != nil }

// convModQ converts a residue-domain element (representing exact integer
// coefficients X with |X| ≤ 2^BoundBits) to X mod q, writing the
// canonical values into the (lo, hi) word slabs. Limb values may be
// lazily reduced (< 2p, the InverseLazy bound): the γ pass folds them
// exactly. dstHi may be nil for one-word moduli.
func (c *Context) convModQ(x *Poly, dstLo, dstHi []uint64) {
	cv := c.conv
	k := c.K()

	// One-word moduli run the γ pass fused into the recombination sweep:
	// each coefficient's γ_i = [(x_i + δ_i)·ω_i] mod p_i values are
	// computed in registers and consumed immediately by the fixed-point
	// lift sum and the Σ γ_i·C_i dot product — the γ scratch element and
	// its write/read round trip disappear. The plain add never wraps
	// (x_i < 2p, δ_i < p, 3p < 2⁶⁴) and the Shoup multiply reduces any
	// word-sized operand exactly.
	if cv.qr.words == 1 && k == 3 {
		// Fully unrolled three-limb form — the shape of every paper
		// parameter set — with the per-limb constants held in registers.
		r1 := cv.qr.r1
		x0, x1, x2 := x.Coeffs[0], x.Coeffs[1], x.Coeffs[2]
		p0, p1, p2 := c.Basis.Primes[0], c.Basis.Primes[1], c.Basis.Primes[2]
		d0, d1, d2 := cv.deltaP[0], cv.deltaP[1], cv.deltaP[2]
		om0, om1, om2 := cv.omega[0], cv.omega[1], cv.omega[2]
		os0, os1, os2 := cv.omegaShoup[0], cv.omegaShoup[1], cv.omegaShoup[2]
		nu0, nu1, nu2 := cv.nu[0], cv.nu[1], cv.nu[2]
		c0, c1, c2 := cv.cLo[0], cv.cLo[1], cv.cLo[2]
		parallelChunks(c.N, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				v := x0[j] + d0
				qh, _ := bits.Mul64(v, os0)
				g0 := v*om0 - qh*p0
				if g0 >= p0 {
					g0 -= p0
				}
				v = x1[j] + d1
				qh, _ = bits.Mul64(v, os1)
				g1 := v*om1 - qh*p1
				if g1 >= p1 {
					g1 -= p1
				}
				v = x2[j] + d2
				qh, _ = bits.Mul64(v, os2)
				g2 := v*om2 - qh*p2
				if g2 >= p2 {
					g2 -= p2
				}
				ph, pl := bits.Mul64(g0, nu0)
				sLo, sHi := ph<<32|pl>>32, uint64(0)
				var cc uint64
				ph, pl = bits.Mul64(g1, nu1)
				sLo, cc = bits.Add64(sLo, ph<<32|pl>>32, 0)
				sHi += cc
				ph, pl = bits.Mul64(g2, nu2)
				sLo, cc = bits.Add64(sLo, ph<<32|pl>>32, 0)
				sHi += cc
				_ = sLo
				aHi, aLo := bits.Mul64(g0, c0)
				ph, pl = bits.Mul64(g1, c1)
				aLo, cc = bits.Add64(aLo, pl, 0)
				aHi += ph + cc
				ph, pl = bits.Mul64(g2, c2)
				aLo, cc = bits.Add64(aLo, pl, 0)
				aHi += ph + cc
				dstLo[j] = r1.Sub(r1.ReduceWide(aHi, aLo), cv.eLo[sHi])
			}
			if dstHi != nil {
				for j := lo; j < hi; j++ {
					dstHi[j] = 0
				}
			}
		})
		return
	}
	if cv.qr.words == 1 && k <= maxFusedChunk {
		r1 := cv.qr.r1
		var xs [maxFusedChunk][]uint64
		for i := 0; i < k; i++ {
			xs[i] = x.Coeffs[i]
		}
		primes := c.Basis.Primes
		parallelChunks(c.N, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				var sLo, sHi, aLo, aHi, cc uint64
				for i := 0; i < k; i++ {
					p := primes[i]
					v := xs[i][j] + cv.deltaP[i]
					qh, _ := bits.Mul64(v, cv.omegaShoup[i])
					gij := v*cv.omega[i] - qh*p
					if gij >= p {
						gij -= p
					}
					ph, pl := bits.Mul64(gij, cv.nu[i])
					sLo, cc = bits.Add64(sLo, ph<<32|pl>>32, 0)
					sHi += cc
					ph, pl = bits.Mul64(gij, cv.cLo[i])
					aLo, cc = bits.Add64(aLo, pl, 0)
					aHi += ph + cc
				}
				dstLo[j] = r1.Sub(r1.ReduceWide(aHi, aLo), cv.eLo[sHi])
			}
			if dstHi != nil {
				for j := lo; j < hi; j++ {
					dstHi[j] = 0
				}
			}
		})
		return
	}

	g := c.getScratch()
	defer c.PutScratch(g)

	// γ pass, limb-parallel: γ_i = [(x_i + δ_i)·ω_i] mod p_i.
	parallelFor(k, func(i int) {
		r := c.Tabs[i].R
		xi, gi := x.Coeffs[i], g.Coeffs[i]
		d, om, oms := cv.deltaP[i], cv.omega[i], cv.omegaShoup[i]
		xi = xi[:len(gi)]
		for j := range gi {
			gi[j] = r.MulShoup(xi[j]+d, om, oms)
		}
	})

	// Recombination pass, coefficient-chunk-parallel: the lift counter e
	// from the 128-bit fixed-point sum, the Σ γ_i·C_i dot product, one
	// Barrett reduction, and the table subtraction.
	if cv.qr.words == 1 {
		r1 := cv.qr.r1
		parallelChunks(c.N, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				var sLo, sHi, aLo, aHi, cc uint64
				for i := 0; i < k; i++ {
					gij := g.Coeffs[i][j]
					ph, pl := bits.Mul64(gij, cv.nu[i])
					sLo, cc = bits.Add64(sLo, ph<<32|pl>>32, 0)
					sHi += cc
					ph, pl = bits.Mul64(gij, cv.cLo[i])
					aLo, cc = bits.Add64(aLo, pl, 0)
					aHi += ph + cc
				}
				dstLo[j] = r1.Sub(r1.ReduceWide(aHi, aLo), cv.eLo[sHi])
			}
			if dstHi != nil {
				for j := lo; j < hi; j++ {
					dstHi[j] = 0
				}
			}
		})
		return
	}
	parallelChunks(c.N, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var sLo, sHi, cc uint64
			var acc [4]uint64
			for i := 0; i < k; i++ {
				gij := g.Coeffs[i][j]
				ph, pl := bits.Mul64(gij, cv.nu[i])
				sLo, cc = bits.Add64(sLo, ph<<32|pl>>32, 0)
				sHi += cc
				h0, l0 := bits.Mul64(gij, cv.cLo[i])
				h1, l1 := bits.Mul64(gij, cv.cHi[i])
				var c1, c3 uint64
				acc[0], c1 = bits.Add64(acc[0], l0, 0)
				mid, c2 := bits.Add64(h0, l1, 0)
				acc[1], c3 = bits.Add64(acc[1], mid, c1)
				acc[2] += h1 + c2 + c3 // Σ γ·C < 2¹⁹², no overflow
			}
			uLo, uHi := cv.qr.reduce256(&acc)
			dstLo[j], dstHi[j] = cv.qr.subMod(uLo, uHi, cv.eLo[sHi], cv.eHi[sHi])
		}
	})
}

// packModQ packs canonical mod-q word pairs into a coefficient-domain
// R_q polynomial (W ≤ 4 limbs, guaranteed by the qring width limits).
func (c *Context) packModQ(dst *poly.Poly, lo, hi []uint64) {
	w := c.Mod.W
	for j := 0; j < c.N; j++ {
		cf := dst.C[j*w : (j+1)*w]
		cf[0] = uint32(lo[j])
		if w > 1 {
			cf[1] = uint32(lo[j] >> 32)
		}
		if w > 2 {
			cf[2] = uint32(hi[j])
			cf[3] = uint32(hi[j] >> 32)
		}
	}
}

// getU64 returns a pooled length-N word slab.
func (c *Context) getU64() *[]uint64 { return c.u64s.Get().(*[]uint64) }

func (c *Context) putU64(s *[]uint64) { c.u64s.Put(s) }

// DigitsToRNS splits p into its base-2^baseBits digit polynomials and
// returns each directly in double-CRT (NTT) form — the relinearization
// and Galois key-switching digit kernel. A digit value is below 2³² and
// hence below every basis prime, so its residue is itself in every limb
// channel: the decomposition is pure limb shifts (no big.Int) and the
// only per-digit cost beyond them is the forward transform set.
//
// Digit NTT forms are lazily reduced (< 2p): the lazy forward transform's
// [0, 4p) outputs are folded once instead of twice, because every
// consumer — the 128-bit fused accumulators, the per-digit Shoup and
// Barrett kernels, and the inverse transform behind FromRNS — accepts the
// 2p bound and reduces digit operands exactly.
//
// The returned elements come from the context's scratch pool: callers
// that drop them after one use (the key-switching accumulators do)
// should hand them back via PutScratch to keep steady-state evaluation
// allocation-free.
func (c *Context) DigitsToRNS(p *poly.Poly, baseBits uint, count int) []*Poly {
	if baseBits == 0 || baseBits > 32 {
		panic("dcrt: digit base must be 1..32 bits")
	}
	if p.N != c.N || p.W != c.Mod.W {
		panic("dcrt: polynomial shape mismatch")
	}
	mask := uint64(1)<<baseBits - 1
	w := p.W
	out := make([]*Poly, count)
	for d := range out {
		out[d] = c.getScratch()
		ch0 := out[d].Coeffs[0]
		s := uint(d) * baseBits
		li, off := int(s/32), s%32
		for j := 0; j < c.N; j++ {
			var v uint64
			if li < w {
				limbs := p.C[j*w : (j+1)*w]
				v = uint64(limbs[li]) >> off
				if li+1 < w {
					v |= uint64(limbs[li+1]) << (32 - off)
				}
			}
			ch0[j] = v & mask
		}
		for i := 1; i < c.K(); i++ {
			copy(out[d].Coeffs[i], ch0)
		}
	}
	c.digitsForward(out, c.K())
	return out
}

// digitsForward runs the lazy forward transform set over the first
// `limbs` limb channels of every digit, folding the outputs below 2p so
// the elements satisfy the general Poly lazy bound (every kernel,
// including the inverse transform, accepts < 2p).
func (c *Context) digitsForward(out []*Poly, limbs int) {
	parallelFor(len(out)*limbs, func(t int) {
		tab := c.Tabs[t%limbs]
		ch := out[t/limbs].Coeffs[t%limbs]
		tab.ForwardLazy(ch)
		twoQ := 2 * tab.R.Q
		for j, v := range ch {
			if v >= twoQ {
				ch[j] = v - twoQ
			}
		}
	})
}

// digitsForwardLazy is digitsForward without the folding pass: digit
// channels keep the raw [0, 4p) ForwardLazy bound. Only for digit sets
// that feed the 128-bit fused accumulators exclusively (fuseCap accounts
// for the 4p operand) — the deferred multiplication path.
func (c *Context) digitsForwardLazy(out []*Poly, limbs int) {
	parallelFor(len(out)*limbs, func(t int) {
		c.Tabs[t%limbs].ForwardLazy(out[t/limbs].Coeffs[t%limbs])
	})
}

// DigitsToRNSWords is DigitsToRNS reading the canonical mod-q coefficients
// from base-conversion word pairs instead of a packed polynomial — the
// deferred multiplication pipeline's digit source, which never
// materializes the rescaled c2 component. Only the first `limbs` limb
// channels are populated and transformed (lazily, < 4p: the digits feed
// the fused accumulators, which fold exactly); pass K() for a full-basis
// digit set. hi may be nil when q fits one word.
func (c *Context) DigitsToRNSWords(lo, hi []uint64, baseBits uint, count, limbs int) []*Poly {
	if baseBits == 0 || baseBits > 32 {
		panic("dcrt: digit base must be 1..32 bits")
	}
	mask := uint64(1)<<baseBits - 1
	out := make([]*Poly, count)
	for d := range out {
		out[d] = c.getScratch()
		ch0 := out[d].Coeffs[0]
		off := uint(d) * baseBits
		switch {
		case off >= 64 && hi == nil:
			for j := 0; j < c.N; j++ {
				ch0[j] = 0
			}
		case off >= 64:
			sh := off - 64
			for j := 0; j < c.N; j++ {
				ch0[j] = hi[j] >> sh & mask
			}
		case hi == nil:
			for j := 0; j < c.N; j++ {
				ch0[j] = lo[j] >> off & mask
			}
		default:
			for j := 0; j < c.N; j++ {
				v := lo[j] >> off
				if off != 0 {
					v |= hi[j] << (64 - off)
				}
				ch0[j] = v & mask
			}
		}
		for i := 1; i < limbs; i++ {
			copy(out[d].Coeffs[i], ch0)
		}
	}
	c.digitsForwardLazy(out, limbs)
	return out
}
