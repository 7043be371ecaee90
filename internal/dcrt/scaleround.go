package dcrt

import (
	"fmt"
	"math/bits"

	"repro/internal/poly"
)

// ScaleRounder performs the BFV tensor rescaling x ↦ ⌊t·x/q⌉ mod q
// entirely in the RNS domain, with no per-coefficient big.Int CRT
// recombination or division.
//
// One fast base conversion with t folded into its tables (tabs) yields
// v = t·X mod q directly. Centering is one bit, g = [v > ⌊q/2⌋]: the
// centered remainder is r = v − g·q (|r| ≤ (q−1)/2, tie-free because q is
// odd), and the rounded quotient is the exact integer Y = (t·X − r)/q.
// Since (t·x_i − r)·q⁻¹ ≡ t·q⁻¹·x_i − q⁻¹·v + g (mod p_i), writing
// v = v_lo + 2⁶⁴·v_hi, limb channel i gets
//
//	y_i = (t·q⁻¹)·x_i + (−q⁻¹)·v_lo + (−2⁶⁴·q⁻¹)·v_hi + g  (mod p_i)
//
// — Shoup products against precomputed constants and a 0/1 add, with no
// sign, no negation and no data-dependent branch (v_hi = 0 when q fits
// one word). A second conversion reduces Y itself mod q (Y is exact in the
// basis: |Y| ≤ t·n·q/4 ≪ 2^BoundBits), giving the canonical result the
// schoolbook oracle produces, bit for bit.
type ScaleRounder struct {
	c *Context
	t uint64

	tabs              convTabs // recombination tables of v = t·X mod q
	tqInv, tqInvShoup []uint64 // t·q⁻¹ mod p_i with Shoup companions
}

// ScaleRounder returns the shared rescaler for plaintext modulus t
// (0 < t < q).
func (c *Context) ScaleRounder(t uint64) *ScaleRounder {
	if v, ok := c.conv.rounders.Load(t); ok {
		return v.(*ScaleRounder)
	}
	if t == 0 || (c.Mod.QBig.IsUint64() && t >= c.Mod.QBig.Uint64()) {
		panic(fmt.Sprintf("dcrt: scale factor t=%d out of range for q", t))
	}
	sr := &ScaleRounder{c: c, t: t, tabs: newConvTabs(c, t)}
	for i, p := range c.Basis.Primes {
		r := c.Tabs[i].R
		tq := r.Mul(t%p, p-c.conv.nqInv[i]) // t·q⁻¹
		sr.tqInv = append(sr.tqInv, tq)
		sr.tqInvShoup = append(sr.tqInvShoup, r.ShoupConst(tq))
	}
	v, _ := c.conv.rounders.LoadOrStore(t, sr)
	return v.(*ScaleRounder)
}

// condSub returns s − m when s ≥ m, else s, without a branch (s, m < 2⁶³).
func condSub(s, m uint64) uint64 {
	d := s - m
	return d + m&uint64(int64(d)>>63)
}

// divide writes limb channel i of the rounded quotient Y into dst from the
// (lazy, < 2p) residues xi of X and the conversion output v = (lo, hi),
// plus add's channel when add is non-nil — the (v, g) form of the
// ScaleRounder comment. Each product's Shoup quotient is taken separately
// and the three remainders summed in one word: each lies in [0, 2p), so
// with g and a lazy add the sum stays below 8p < 2⁶³ and three masked
// subtractions make it canonical. dst may alias xi; hi is nil when q fits
// one word.
func (sr *ScaleRounder) divide(i int, dst, xi, add, lo, hi []uint64) {
	cv := sr.c.conv
	p := sr.c.Basis.Primes[i]
	tq, tqS := sr.tqInv[i], sr.tqInvShoup[i]
	nq, nqS := cv.nqInv[i], cv.nqInvShoup[i]
	xi, lo = xi[:len(dst)], lo[:len(dst)]
	if add != nil {
		add = add[:len(dst)]
	}
	if hi == nil {
		half := cv.qr.half0
		for j, x := range xi {
			v := lo[j]
			q1, _ := bits.Mul64(x, tqS)
			q2, _ := bits.Mul64(v, nqS)
			s := x*tq + v*nq - (q1+q2)*p + (half-v)>>63 // v, half < 2⁶²: g is the sign
			if add != nil {
				s += add[j]
			}
			dst[j] = condSub(condSub(condSub(s, 4*p), 2*p), p)
		}
		return
	}
	hi = hi[:len(dst)]
	n64, n64S := cv.nqInv64[i], cv.nqInv64Shoup[i]
	half0, half1 := cv.qr.half0, cv.qr.half1
	for j, x := range xi {
		vLo, vHi := lo[j], hi[j]
		_, b := bits.Sub64(half0, vLo, 0)
		_, g := bits.Sub64(half1, vHi, b)
		q1, _ := bits.Mul64(x, tqS)
		q2, _ := bits.Mul64(vLo, nqS)
		q3, _ := bits.Mul64(vHi, n64S)
		s := x*tq + vLo*nq + vHi*n64 - (q1+q2+q3)*p + g
		if add != nil {
			s += add[j]
		}
		dst[j] = condSub(condSub(condSub(s, 4*p), 2*p), p)
	}
}

// CanRoundModT reports whether RoundModT is exact for inputs whose
// integer coefficients X satisfy |X| < 2^magBits: the conversion X mod q
// must stay inside the basis exactness window, and the rounded quotient
// Y = ⌊t·X/q⌉ must be recoverable from its residue in limb channel 0
// alone (|Y| < p₀/2). Callers outside those bounds keep the big.Int
// path.
func (sr *ScaleRounder) CanRoundModT(magBits int) bool {
	c := sr.c
	if magBits >= c.BoundBits {
		return false
	}
	// |Y| ≤ t·|X|/q + 1/2, so bits(Y) ≤ bits(t) + magBits − bits(q) + 2.
	yBits := bits.Len64(sr.t) + magBits - c.Mod.Bits() + 2
	return yBits < bits.Len64(c.Basis.Primes[0])-1
}

// RoundModT maps the exact integer coefficients X of x (NTT domain) to
// ⌊t·X/q⌉ mod t, writing the canonical values into out (length N) — the
// RNS-native decryption tail. It shares ScaleRound's exact t/q rounding:
// one t-scaled conversion gives v = t·X mod q, and the quotient
// Y = (t·X − r)/q — the exact round of t·X/q, tie-free because q is odd —
// is read from limb channel 0 by the same (v, g) division, valid while
// |Y| < p₀/2 (callers gate on CanRoundModT). The final centered-mod-t
// fold matches the big.Int oracle's Euclidean Mod, bit for bit, with no
// big.Int on the path.
func (sr *ScaleRounder) RoundModT(x *Poly, out []uint64) {
	c := sr.c
	tmp := c.inttLazy(x)
	defer c.PutScratch(tmp)
	w := c.getConvOut()
	defer c.putConvOut(w)
	c.convModQ(tmp, &sr.tabs, w.lo, w.hi)

	p0 := c.Basis.Primes[0]
	half0 := p0 >> 1
	t := sr.t
	y := tmp.Coeffs[0]
	parallelChunks(c.N, func(from, to int) {
		var hi []uint64
		if w.hi != nil {
			hi = w.hi[from:to]
		}
		sr.divide(0, y[from:to], y[from:to], nil, w.lo[from:to], hi)
		for j := from; j < to; j++ {
			// y is Y mod p₀ with |Y| < p₀/2: fold the centered value into
			// [0, t) the way big.Int's Euclidean Mod does.
			if v := y[j]; v > half0 {
				if m := (p0 - v) % t; m != 0 {
					out[j] = t - m
				} else {
					out[j] = 0
				}
			} else {
				out[j] = v % t
			}
		}
	})
}

// ScaleRound maps the exact integer coefficients X of x (NTT domain,
// |X| ≤ 2^BoundBits) to ⌊t·X/q⌉ mod q, packed into dst, a
// coefficient-domain R_q polynomial, bit-identical to the schoolbook
// evaluator's big.Int rescale with no big.Int on the path: two fast base
// conversions and one Shoup pass per limb channel.
func (sr *ScaleRounder) ScaleRound(dst *poly.Poly, x *Poly) {
	tmp := sr.ScaleRoundResidues(x)
	defer sr.c.PutScratch(tmp)
	sr.c.FromResidues(dst, tmp)
}

// ScaleRoundResidues stops ScaleRound after the per-limb exact division:
// the returned (pooled) element holds, in the residue domain, the exact
// integer Y = ⌊t·X/q⌉ in every limb channel (canonical residues) — the
// deferred form of a tensor component, congruent mod q to the ScaleRound
// output. Callers own the element and return it via PutScratch (or hand
// it to a deferred handle that does).
func (sr *ScaleRounder) ScaleRoundResidues(x *Poly) *Poly {
	return sr.scaleRoundResidues(x, false, nil)
}

// ScaleRoundResiduesInPlace is ScaleRoundResidues consuming x: the
// inverse transforms run in place, so callers that own x (scratch tensor
// outputs) skip the defensive copy. x is the returned element.
func (sr *ScaleRounder) ScaleRoundResiduesInPlace(x *Poly) *Poly {
	return sr.scaleRoundResidues(x, true, nil)
}

// ScaleRoundResiduesAddInPlace is ScaleRoundResiduesInPlace with a fused
// residue-domain addition: the returned element holds Y + add (exact
// integers, limb-wise), written during the division pass itself — the
// deferred product's rescale-plus-key-switch fold in one sweep. add may
// be lazily reduced (< 2p); outputs are canonical.
func (sr *ScaleRounder) ScaleRoundResiduesAddInPlace(x, add *Poly) *Poly {
	return sr.scaleRoundResidues(x, true, add)
}

func (sr *ScaleRounder) scaleRoundResidues(x *Poly, inPlace bool, add *Poly) *Poly {
	c := sr.c
	var tmp *Poly
	if inPlace {
		c.IntoResiduesLazyLimbs(x, c.K())
		tmp = x
	} else {
		tmp = c.inttLazy(x)
	}
	w := c.getConvOut()
	defer c.putConvOut(w)
	c.convModQ(tmp, &sr.tabs, w.lo, w.hi)
	parallelFor(c.K(), func(i int) {
		var ai []uint64
		if add != nil {
			ai = add.Coeffs[i]
		}
		sr.divide(i, tmp.Coeffs[i], tmp.Coeffs[i], ai, w.lo, w.hi)
	})
	return tmp
}

// ScaleRoundDigits is ScaleRound followed by the base-2^baseBits digit
// decomposition of the result, without materializing the intermediate
// polynomial: the canonical mod-q words feed the digit extraction
// directly (DigitsToRNSWords) — the deferred multiplication pipeline's
// c2 path, which never packs coefficients. Only the first `limbs` digit
// channels are populated (the sub-basis key switch); the returned digit
// elements are pooled (see DigitsToRNS). x is consumed (transformed in
// place): it must be caller-owned scratch.
func (sr *ScaleRounder) ScaleRoundDigits(x *Poly, baseBits uint, count, limbs int) []*Poly {
	c := sr.c
	tmp := sr.ScaleRoundResiduesInPlace(x)
	w := c.getConvOut()
	defer c.putConvOut(w)
	c.convModQ(tmp, &c.conv.unit, w.lo, w.hi)
	return c.DigitsToRNSWords(w.lo, w.hi, baseBits, count, limbs)
}

// CenteredNTTFromResidues converts a residue-domain element representing
// exact integer coefficients X (inside the basis exactness window) into
// the NTT-domain centered-mod-q form without leaving the RNS domain —
// congruent, slot for slot, to packing X mod q and calling ToRNSCentered:
// one base conversion gives u = X mod q, which enters every limb channel
// through ToRNSCentered's word kernel (enterChannel), and the channels
// transform forward lazily (the form feeds pointwise Barrett products,
// which reduce any operand exactly). The result is pooled; callers return
// it via PutScratch.
func (c *Context) CenteredNTTFromResidues(x *Poly) *Poly {
	w := c.getConvOut()
	defer c.putConvOut(w)
	c.convModQ(x, &c.conv.unit, w.lo, w.hi)
	out := c.GetScratch()
	parallelFor(c.K(), func(i int) {
		c.enterChannel(out.Coeffs[i], i, w.lo, w.hi, true)
		c.Tabs[i].ForwardLazy(out.Coeffs[i])
	})
	return out
}
