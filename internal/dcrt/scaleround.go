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
// With r = t·X cmod q the centered remainder (|r| ≤ (q−1)/2, tie-free
// because q is odd), the rounded quotient is the exact integer
// Y = (t·X − r)/q, so limb channel i gets
//
//	y_i = (t·x_i − r) · q⁻¹ mod p_i
//
// once r is known — and r needs only X mod q, one fast base conversion.
// A second conversion reduces Y itself mod q (Y is exact in the basis:
// |Y| ≤ t·n·q/4 ≪ 2^BoundBits), giving the canonical result the
// schoolbook oracle produces, bit for bit.
type ScaleRounder struct {
	c *Context
	t uint64

	tP, tPShoup []uint64 // t mod p_i with Shoup companions
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
	sr := &ScaleRounder{c: c, t: t}
	for i, p := range c.Basis.Primes {
		tp := t % p
		sr.tP = append(sr.tP, tp)
		sr.tPShoup = append(sr.tPShoup, c.Tabs[i].R.ShoupConst(tp))
	}
	v, _ := c.conv.rounders.LoadOrStore(t, sr)
	return v.(*ScaleRounder)
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
// one fast base conversion gives u = X mod q, the centered remainder
// r = t·u cmod q makes t·X − r divisible by q, and the quotient
// Y = (t·X − r)/q — the exact round of t·X/q, tie-free because q is odd
// — is then read from limb channel 0 by the same per-limb exact
// division, valid while |Y| < p₀/2 (callers gate on CanRoundModT). The
// final centered-mod-t fold matches the big.Int oracle's Euclidean Mod,
// bit for bit, with no big.Int on the path.
func (sr *ScaleRounder) RoundModT(x *Poly, out []uint64) {
	c := sr.c
	cv := c.conv
	tmp := c.inttLazy(x)
	defer c.PutScratch(tmp)

	uLo := c.getU64()
	uHi := c.getU64()
	neg := c.getU64()
	defer c.putU64(uLo)
	defer c.putU64(uHi)
	defer c.putU64(neg)
	lo, hi, sign := *uLo, *uHi, *neg

	c.convModQ(tmp, lo, hi)
	r0 := c.Tabs[0].R
	p0 := c.Basis.Primes[0]
	half0 := p0 >> 1
	t := sr.t
	tP, tPs := sr.tP[0], sr.tPShoup[0]
	qInv, qInvS := cv.qInvP[0], cv.qInvPShoup[0]
	x0 := tmp.Coeffs[0]
	parallelChunks(c.N, func(from, to int) {
		for j := from; j < to; j++ {
			rlo, rhi := cv.qr.mulSmall(lo[j], hi[j], t)
			if cv.qr.gtHalf(rlo, rhi) {
				rlo, rhi = cv.qr.negate(rlo, rhi)
				sign[j] = 1
			} else {
				sign[j] = 0
			}
			tx := r0.MulShoup(x0[j], tP, tPs)
			rm := rlo
			if !cv.remFits[0] {
				rm = r0.ReduceWide(rhi, rlo)
			}
			var d uint64
			if sign[j] != 0 {
				d = r0.Add(tx, rm)
			} else {
				d = r0.Sub(tx, rm)
			}
			y := r0.MulShoup(d, qInv, qInvS)
			// y is Y mod p₀ with |Y| < p₀/2: fold the centered value into
			// [0, t) the way big.Int's Euclidean Mod does.
			if y > half0 {
				if m := (p0 - y) % t; m != 0 {
					out[j] = t - m
				} else {
					out[j] = 0
				}
			} else {
				out[j] = y % t
			}
		}
	})
}

// ScaleRound maps the exact integer coefficients X of x (NTT domain,
// |X| ≤ 2^BoundBits) to ⌊t·X/q⌉ mod q, packed as a coefficient-domain
// R_q polynomial, bit-identical to the schoolbook evaluator's big.Int
// rescale with no big.Int on the path: two fast base conversions, one
// word-sized modular multiply per coefficient, and one Shoup pass per
// limb channel.
func (sr *ScaleRounder) ScaleRound(x *Poly) *poly.Poly {
	tmp := sr.ScaleRoundResidues(x)
	defer sr.c.PutScratch(tmp)
	return sr.c.FromResidues(tmp)
}

// ScaleRoundResidues stops ScaleRound after the per-limb exact division:
// the returned (pooled) element holds, in the residue domain, the exact
// integer Y = ⌊t·X/q⌉ in every limb channel — the deferred form of a
// tensor component, congruent mod q to the ScaleRound output. Callers own
// the element and return it via PutScratch (or hand it to a deferred
// handle that does).
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
// be lazily reduced (< 2p); outputs are lazy (< 2p).
func (sr *ScaleRounder) ScaleRoundResiduesAddInPlace(x, add *Poly) *Poly {
	return sr.scaleRoundResidues(x, true, add)
}

func (sr *ScaleRounder) scaleRoundResidues(x *Poly, inPlace bool, add *Poly) *Poly {
	c := sr.c
	cv := c.conv
	var tmp *Poly
	if inPlace {
		c.IntoResiduesLazyLimbs(x, c.K())
		tmp = x
	} else {
		tmp = c.inttLazy(x)
	}

	uLo := c.getU64()
	neg := c.getU64()
	defer c.putU64(uLo)
	defer c.putU64(neg)
	lo, sign := *uLo, *neg

	// u = X mod q, then the centered remainder r = t·u cmod q, stored as
	// magnitude (lo[, hi]) plus sign. One-word moduli skip the high slab.
	var hi []uint64
	if cv.qr.words == 1 {
		r1, q0, half0 := cv.qr.r1, cv.qr.q0, cv.qr.half0
		c.convModQ(tmp, lo, nil)
		parallelChunks(c.N, func(from, to int) {
			for j := from; j < to; j++ {
				r := r1.Mul(lo[j], sr.t)
				if r > half0 {
					lo[j] = q0 - r
					sign[j] = 1
				} else {
					lo[j] = r
					sign[j] = 0
				}
			}
		})
	} else {
		uHi := c.getU64()
		defer c.putU64(uHi)
		hi = *uHi
		c.convModQ(tmp, lo, hi)
		parallelChunks(c.N, func(from, to int) {
			for j := from; j < to; j++ {
				rlo, rhi := cv.qr.mulSmall(lo[j], hi[j], sr.t)
				if cv.qr.gtHalf(rlo, rhi) {
					rlo, rhi = cv.qr.negate(rlo, rhi)
					sign[j] = 1
				} else {
					sign[j] = 0
				}
				lo[j], hi[j] = rlo, rhi
			}
		})
	}

	// Per-limb exact division: y_i = (t·x_i − r)·q⁻¹ mod p_i. The lazy
	// (< 2p) transform values fold exactly through the Shoup multiply,
	// and when q fits below the limb prime the remainder magnitude is
	// already a canonical residue — no per-coefficient fold at all.
	parallelFor(c.K(), func(i int) {
		r := c.Tabs[i].R
		twoP := 2 * r.Q
		xi := tmp.Coeffs[i]
		var ai []uint64
		if add != nil {
			ai = add.Coeffs[i][:len(xi)]
		}
		tP, tPs := sr.tP[i], sr.tPShoup[i]
		qInv, qInvS := cv.qInvP[i], cv.qInvPShoup[i]
		if cv.remFits[i] && add != nil {
			for j := range xi {
				tx := r.MulShoup(xi[j], tP, tPs)
				var d uint64
				if sign[j] != 0 {
					d = r.Add(tx, lo[j])
				} else {
					d = r.Sub(tx, lo[j])
				}
				s := r.MulShoup(d, qInv, qInvS) + ai[j]
				if s >= twoP {
					s -= twoP
				}
				xi[j] = s
			}
			return
		}
		if cv.remFits[i] {
			for j := range xi {
				tx := r.MulShoup(xi[j], tP, tPs)
				var d uint64
				if sign[j] != 0 {
					d = r.Add(tx, lo[j])
				} else {
					d = r.Sub(tx, lo[j])
				}
				xi[j] = r.MulShoup(d, qInv, qInvS)
			}
			return
		}
		for j := range xi {
			tx := r.MulShoup(xi[j], tP, tPs)
			var rhi uint64
			if hi != nil {
				rhi = hi[j]
			}
			rm := r.ReduceWide(rhi, lo[j])
			var d uint64
			if sign[j] != 0 {
				d = r.Add(tx, rm)
			} else {
				d = r.Sub(tx, rm)
			}
			v := r.MulShoup(d, qInv, qInvS)
			if ai != nil {
				v += ai[j]
				if v >= twoP {
					v -= twoP
				}
			}
			xi[j] = v
		}
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
	uLo := c.getU64()
	defer c.putU64(uLo)
	var hi []uint64
	if c.conv.qr.words == 2 {
		uHi := c.getU64()
		defer c.putU64(uHi)
		hi = *uHi
	}
	c.convModQ(tmp, *uLo, hi)
	return c.DigitsToRNSWords(*uLo, hi, baseBits, count, limbs)
}

// CenteredNTTFromResidues converts a residue-domain element representing
// exact integer coefficients X (inside the basis exactness window) into
// the NTT-domain centered-mod-q form — bit-identical to packing X mod q
// and calling ToRNSCentered, without leaving the RNS domain: one base
// conversion gives u = X mod q, the centered representative u or u−q
// reduces into each limb channel as a word-pair fold, and the limb
// channels transform forward (lazily: the form feeds pointwise Barrett
// products, which reduce any operand exactly). The result is pooled;
// callers return it via PutScratch.
func (c *Context) CenteredNTTFromResidues(x *Poly) *Poly {
	cv := c.conv
	uLo := c.getU64()
	neg := c.getU64()
	defer c.putU64(uLo)
	defer c.putU64(neg)
	lo, sign := *uLo, *neg

	var hi []uint64
	if cv.qr.words == 1 {
		q0, half0 := cv.qr.q0, cv.qr.half0
		c.convModQ(x, lo, nil)
		parallelChunks(c.N, func(from, to int) {
			for j := from; j < to; j++ {
				if lo[j] > half0 {
					lo[j] = q0 - lo[j]
					sign[j] = 1
				} else {
					sign[j] = 0
				}
			}
		})
	} else {
		uHi := c.getU64()
		defer c.putU64(uHi)
		hi = *uHi
		c.convModQ(x, lo, hi)
		parallelChunks(c.N, func(from, to int) {
			for j := from; j < to; j++ {
				if cv.qr.gtHalf(lo[j], hi[j]) {
					lo[j], hi[j] = cv.qr.negate(lo[j], hi[j])
					sign[j] = 1
				} else {
					sign[j] = 0
				}
			}
		})
	}
	out := c.getScratch()
	parallelFor(c.K(), func(i int) {
		r := c.Tabs[i].R
		oi := out.Coeffs[i]
		if cv.remFits[i] {
			for j := range oi {
				rm := lo[j]
				if sign[j] != 0 {
					rm = r.Neg(rm)
				}
				oi[j] = rm
			}
		} else {
			for j := range oi {
				var rhi uint64
				if hi != nil {
					rhi = hi[j]
				}
				rm := r.ReduceWide(rhi, lo[j])
				if sign[j] != 0 {
					rm = r.Neg(rm)
				}
				oi[j] = rm
			}
		}
		c.Tabs[i].ForwardLazy(oi)
	})
	return out
}
