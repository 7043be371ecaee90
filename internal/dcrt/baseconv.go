// Fast exact base conversion out of the extended RNS basis.
//
// The BEHZ/HPS-style conversion computes, for an integer X held as
// residues x_i over the basis primes p_i, the value t·X mod q for the ring
// modulus q and a word-sized factor t (t = 1 for a plain conversion; the
// scale-and-round folds its plaintext modulus in) — entirely in word
// arithmetic. Writing γ_i = [x_i·(Q'/p_i)⁻¹ mod p_i], the CRT gives
// X = Σ γ_i·(Q'/p_i) − e·Q' for a small lift counter e = ⌊Σ γ_i/p_i⌋ < k,
// so
//
//	t·X mod q = ( Σ γ_i·C_i + E_e ) mod q ,
//	C_i = t·(Q'/p_i) mod q ,  E_e = −t·(e·Q' + δ) mod q .
//
// Both tables are precomputed (convTabs), so t costs nothing per
// coefficient, and the sum is below K·2⁶⁰·q — one word of quotient — so a
// single bound-specialised reduction finishes it (see qring).
//
// The only hazard is e: the classic approximate conversion estimates the
// sum Σ γ_i/p_i in fixed point and can be off by one when the fractional
// part X/Q' lands near 0 or 1. Instead of absorbing that error into
// noise (this backend must stay bit-identical to the schoolbook oracle),
// the kernel converts the shifted value Z = X + δ with δ = ⌊Q'/4⌋ and
// subtracts t·δ mod q (inside E_e). The Context sizes the basis so
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

// maxConvLimbs caps the basis size K. The conversion's recombination sum
// Σ γ_i·C_i + E_e stays below K·2⁶⁰·q, and both word widths reduce it with
// a one-word quotient: qring.reduce3 needs it below 2⁶³·q, the one-word
// ReduceWide below 2⁶⁴·q, and ExtendResidues' per-channel sums the same
// for its sub-basis. K ≤ 8 holds all three; every paper parameter set
// needs at most 5 limbs. NewContext refuses a larger basis.
const maxConvLimbs = 8

// convState holds the precomputed tables of the fast base conversion
// basis → q. Every Context has one: NewContext refuses modulus shapes the
// word-sized path cannot serve (see newConvState).
type convState struct {
	qr *qring

	// Per prime, with Shoup companions, the constants that bring a
	// conversion output v = v_lo + 2⁶⁴·v_hi back into limb channel i:
	// −q⁻¹ and −2⁶⁴·q⁻¹ mod p_i (the scale-and-round division), and 1 and
	// 2⁶⁴ mod p_i (every entry into double-CRT form, with −q mod p_i).
	nqInv, nqInvShoup     []uint64
	nqInv64, nqInv64Shoup []uint64
	oneShoup              []uint64
	two64, two64Shoup     []uint64
	negQ                  []uint64

	unit convTabs // t = 1: the plain conversion X mod q

	rounders sync.Map // t (uint64) → *ScaleRounder
}

// convTabs are the constants of one conversion target t·X mod q: per
// prime a convLimb, and per lift counter e = 0..K the complement
// E_e = −t·(e·Q' + δ) mod q as a (lo, hi) word pair, added rather than
// subtracted so the reduction absorbs it.
type convTabs struct {
	limbs    []convLimb
	eLo, eHi []uint64
}

// convLimb gathers one prime's sweep constants, so the sweep's inner
// loop reads one struct per limb: the γ pass's ω = (Q'/p)⁻¹ mod p with
// Shoup companion and δ mod p, the lift counter's fixed-point
// ν = ⌊2⁹⁶/p⌋, and C = t·(Q'/p) mod q as a (lo, hi) word pair.
type convLimb struct {
	p, delta, omega, omegaShoup, nu, cLo, cHi uint64
}

// gamma returns γ = [(x + δ)·ω] mod p for a lazy (< 2p) residue x: the
// plain add never wraps (x < 2p, δ < p, 3p < 2⁶⁴) and the Shoup multiply
// reduces any word-sized operand exactly.
func (l *convLimb) gamma(x uint64) uint64 {
	v := x + l.delta
	qh, _ := bits.Mul64(v, l.omegaShoup)
	g := v*l.omega - qh*l.p
	if g >= l.p {
		g -= l.p
	}
	return g
}

// newConvTabs builds the conversion constants for factor t.
func newConvTabs(c *Context, t uint64) convTabs {
	q := c.Mod.QBig
	tb := new(big.Int).SetUint64(t)
	delta := new(big.Int).Rsh(c.Basis.Q, 2)
	v := new(big.Int)
	var ct convTabs
	for i, p := range c.Basis.Primes {
		omega, omegaShoup := c.Basis.QHatInv(i)
		v.Mul(c.Basis.QHat(i), tb)
		v.Mod(v, q)
		ct.limbs = append(ct.limbs, convLimb{
			p:     p,
			delta: new(big.Int).Mod(delta, new(big.Int).SetUint64(p)).Uint64(),
			omega: omega, omegaShoup: omegaShoup,
			nu:  c.Basis.Nu96(i),
			cLo: bigWord(v, 0), cHi: bigWord(v, 1),
		})
	}
	for e := 0; e <= c.K(); e++ {
		v.Mul(big.NewInt(int64(e)), c.Basis.Q)
		v.Add(v, delta)
		v.Mul(v, tb)
		v.Neg(v)
		v.Mod(v, q) // Euclidean: in [0, q)
		ct.eLo = append(ct.eLo, bigWord(v, 0))
		ct.eHi = append(ct.eHi, bigWord(v, 1))
	}
	return ct
}

// newConvState builds the conversion tables, or returns an error when the
// modulus or basis shape rules the word-sized path out (q even, 63/64
// bits, above 2¹²⁴, sharing a factor with a basis prime, more than
// maxConvLimbs basis primes, or basis primes too narrow for the ν trick).
func newConvState(c *Context) (*convState, error) {
	qr, err := newQring(c.Mod.QBig)
	if err != nil {
		return nil, err
	}
	if k := c.K(); k > maxConvLimbs {
		return nil, fmt.Errorf("dcrt: %d basis primes exceed the %d the base conversion's one-word quotient allows", k, maxConvLimbs)
	}
	cv := &convState{qr: qr}
	for i, p := range c.Basis.Primes {
		if c.Basis.Nu96(i) == 0 {
			return nil, fmt.Errorf("dcrt: basis prime %d ≤ 2³² is too narrow for the fixed-point lift", p)
		}
		pb := new(big.Int).SetUint64(p)
		qp := new(big.Int).Mod(c.Mod.QBig, pb)
		qInv := new(big.Int).ModInverse(qp, pb)
		if qInv == nil {
			return nil, fmt.Errorf("dcrt: modulus q shares a factor with basis prime %d", p)
		}
		r := c.Tabs[i].R
		nq := p - qInv.Uint64() // −q⁻¹
		t64 := bits.Rem64(1, 0, p)
		nq64 := r.Mul(nq, t64)
		cv.nqInv = append(cv.nqInv, nq)
		cv.nqInvShoup = append(cv.nqInvShoup, r.ShoupConst(nq))
		cv.nqInv64 = append(cv.nqInv64, nq64)
		cv.nqInv64Shoup = append(cv.nqInv64Shoup, r.ShoupConst(nq64))
		cv.oneShoup = append(cv.oneShoup, r.ShoupConst(1))
		cv.two64 = append(cv.two64, t64)
		cv.two64Shoup = append(cv.two64Shoup, r.ShoupConst(t64))
		cv.negQ = append(cv.negQ, p-qp.Uint64())
	}
	cv.unit = newConvTabs(c, 1)
	return cv, nil
}

// RNSNative reports whether this context leaves the RNS domain through
// the word-sized fast base conversion — always true for a context
// NewContext returned, which refuses every other modulus shape.
func (c *Context) RNSNative() bool { return c.conv != nil }

// convModQ converts a residue-domain element (representing exact integer
// coefficients X with |X| ≤ 2^BoundBits) to t·X mod q for the factor t
// tb was built for, writing the canonical values into the (lo, hi) word
// slabs. Each coefficient takes one sweep: its γ_i values, the lift
// counter and the recombination sum live in registers, and one
// reduction finishes it. Limb values may be lazily reduced (< 2p, see
// convLimb.gamma). dstHi is nil, and untouched, when q fits one word.
func (c *Context) convModQ(x *Poly, tb *convTabs, dstLo, dstHi []uint64) {
	cv := c.conv
	if cv.qr.words == 2 {
		// Σ γ_i·C_i + E_e accumulates in three words (< K·2⁶⁰·q ≤ 2¹⁸⁷)
		// and qring.reduce3 reduces it once.
		qr := cv.qr
		lt := tb.limbs
		xs := x.Coeffs[:len(lt)]
		parallelChunks(c.N, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				var sLo, sHi, a0, a1, a2, cc uint64
				for i := range lt {
					l := &lt[i]
					g := l.gamma(xs[i][j])
					ph, pl := bits.Mul64(g, l.nu)
					sLo, cc = bits.Add64(sLo, ph<<32|pl>>32, 0)
					sHi += cc
					h0, l0 := bits.Mul64(g, l.cLo)
					h1, l1 := bits.Mul64(g, l.cHi)
					a0, cc = bits.Add64(a0, l0, 0)
					a1, cc = bits.Add64(a1, h0, cc)
					a2 += h1 + cc
					a1, cc = bits.Add64(a1, l1, 0)
					a2 += cc
				}
				a0, cc = bits.Add64(a0, tb.eLo[sHi], 0)
				a1, cc = bits.Add64(a1, tb.eHi[sHi], cc)
				dstLo[j], dstHi[j] = qr.reduce3(a0, a1, a2+cc)
			}
		})
		return
	}

	// One-word moduli: Σ γ_i·C_i + E_e < K·2⁶⁰·q fits 128 bits and one
	// Barrett reduction (ReduceWide) finishes it.
	r1 := cv.qr.r1
	if c.K() == 3 {
		// Fully unrolled three-limb form — the shape of every one-word
		// paper parameter set — with the per-limb constants in registers.
		x0, x1, x2 := x.Coeffs[0], x.Coeffs[1], x.Coeffs[2]
		l0, l1, l2 := &tb.limbs[0], &tb.limbs[1], &tb.limbs[2]
		p0, p1, p2 := l0.p, l1.p, l2.p
		d0, d1, d2 := l0.delta, l1.delta, l2.delta
		om0, om1, om2 := l0.omega, l1.omega, l2.omega
		os0, os1, os2 := l0.omegaShoup, l1.omegaShoup, l2.omegaShoup
		nu0, nu1, nu2 := l0.nu, l1.nu, l2.nu
		c0, c1, c2 := l0.cLo, l1.cLo, l2.cLo
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
				aLo, cc = bits.Add64(aLo, tb.eLo[sHi], 0)
				dstLo[j] = r1.ReduceWide(aHi+cc, aLo)
			}
		})
		return
	}
	lt := tb.limbs
	xs := x.Coeffs[:len(lt)]
	parallelChunks(c.N, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var sLo, sHi, aLo, aHi, cc uint64
			for i := range lt {
				l := &lt[i]
				g := l.gamma(xs[i][j])
				ph, pl := bits.Mul64(g, l.nu)
				sLo, cc = bits.Add64(sLo, ph<<32|pl>>32, 0)
				sHi += cc
				ph, pl = bits.Mul64(g, l.cLo)
				aLo, cc = bits.Add64(aLo, pl, 0)
				aHi += ph + cc
			}
			aLo, cc = bits.Add64(aLo, tb.eLo[sHi], 0)
			dstLo[j] = r1.ReduceWide(aHi+cc, aLo)
		}
	})
}

// convOut is a pooled pair of length-N slabs receiving one conversion's
// mod-q word pairs; hi is nil when q fits one word.
type convOut struct{ lo, hi []uint64 }

func (c *Context) getConvOut() *convOut  { return c.outs.Get().(*convOut) }
func (c *Context) putConvOut(w *convOut) { c.outs.Put(w) }

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

// unpackModQ is packModQ's inverse, reading src's coefficients into the
// (lo, hi) word pairs the entry kernel (enterChannel) consumes.
func (c *Context) unpackModQ(lo, hi []uint64, src *poly.Poly) {
	w := c.Mod.W
	for j := range lo {
		cf := src.C[j*w : (j+1)*w]
		lo[j] = uint64(cf[0])
		if w > 1 {
			lo[j] |= uint64(cf[1]) << 32
		}
		if w > 2 {
			hi[j] = uint64(cf[2]) | uint64(cf[3])<<32
		}
	}
}

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
		out[d] = c.GetScratch()
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
		out[d] = c.GetScratch()
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
