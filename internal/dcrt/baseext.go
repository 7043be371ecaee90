// Exact base extension inside the extended basis.
//
// A key-switching accumulator is a much smaller exact integer than a
// tensor component — digits·n·2^base·q bits instead of n·q² bits — so its
// digit transforms and accumulation only need a prefix of the basis wide
// enough to hold it exactly. The remaining limb channels are recovered
// afterwards in the residue domain by the same quarter-shifted
// fixed-point CRT lift the base conversion to q uses (see baseconv.go):
// for X held as residues x_i over the sub-basis {p_0..p_{s−1}} with
// product P', γ_i = [(x_i + δ'_i)·ω'_i] mod p_i gives
//
//	X mod p_t = ( Σ γ_i·[(P'/p_i) mod p_t] − (e·P' + δ') mod p_t ) mod p_t
//
// with the lift counter e exact whenever |X| ≤ P'/8 (the caller sizes the
// sub-basis via SubBasisFor, which keeps three headroom bits plus one).
// This trades limb-channel transforms — the dominant key-switching cost —
// for one word-sized recombination pass per missing channel.
package dcrt

import (
	"math/big"
	"math/bits"
)

// extState holds the extension tables for one sub-basis prefix length.
type extState struct {
	subK int

	// Per sub-basis prime, the base conversion's γ and lift constants
	// (convLimb) over P': ω'_i = (P'/p_i)⁻¹ mod p_i with Shoup companion,
	// δ' = ⌊P'/4⌋ mod p_i and ν_i = ⌊2⁹⁶/p_i⌋. cLo/cHi are unused: the
	// recombination targets the limb channels in cT, not q.
	limbs []convLimb

	// Per target limb t ≥ subK: cT[t−subK][i] = (P'/p_i) mod p_t and the
	// lift table liftT[t−subK][e] = (e·P' + δ') mod p_t for e = 0..subK.
	cT, liftT [][]uint64
}

// SubBasisFor returns the smallest basis prefix length s whose prime
// product exceeds 2^(magBits+3) — wide enough that integers X with
// |X| ≤ 2^magBits extend exactly from the first s limb channels
// (ExtendResidues). Returns K() when no strict prefix suffices.
func (c *Context) SubBasisFor(magBits int) int {
	p := big.NewInt(1)
	for s, prime := range c.Basis.Primes {
		if p.BitLen() > magBits+3 {
			return s
		}
		p.Mul(p, new(big.Int).SetUint64(prime))
	}
	return c.K()
}

// extFor returns the cached extension tables for the sub-basis prefix of
// length subK (1 ≤ subK < K), building them on first use.
func (c *Context) extFor(subK int) *extState {
	if v, ok := c.exts.Load(subK); ok {
		return v.(*extState)
	}
	k := c.K()
	st := &extState{subK: subK}
	pSub := big.NewInt(1)
	for i := 0; i < subK; i++ {
		pSub.Mul(pSub, new(big.Int).SetUint64(c.Basis.Primes[i]))
	}
	delta := new(big.Int).Rsh(pSub, 2)
	t := new(big.Int)
	for i := 0; i < subK; i++ {
		p := c.Basis.Primes[i]
		pb := new(big.Int).SetUint64(p)
		phat := new(big.Int).Div(pSub, pb)
		inv := new(big.Int).ModInverse(t.Mod(phat, pb), pb).Uint64()
		st.limbs = append(st.limbs, convLimb{
			p:     p,
			delta: t.Mod(delta, pb).Uint64(),
			omega: inv, omegaShoup: c.Tabs[i].R.ShoupConst(inv),
			nu: c.Basis.Nu96(i),
		})
	}
	for tgt := subK; tgt < k; tgt++ {
		pt := new(big.Int).SetUint64(c.Basis.Primes[tgt])
		row := make([]uint64, subK)
		for i := 0; i < subK; i++ {
			phat := new(big.Int).Div(pSub, new(big.Int).SetUint64(c.Basis.Primes[i]))
			row[i] = t.Mod(phat, pt).Uint64()
		}
		st.cT = append(st.cT, row)
		lift := make([]uint64, subK+1)
		for e := 0; e <= subK; e++ {
			t.Mul(big.NewInt(int64(e)), pSub)
			t.Add(t, delta)
			lift[e] = new(big.Int).Mod(t, pt).Uint64()
		}
		st.liftT = append(st.liftT, lift)
	}
	v, _ := c.exts.LoadOrStore(subK, st)
	return v.(*extState)
}

// ExtendResidues fills limb channels subK..K−1 of x (residue domain) from
// its first subK channels, exactly: the channels must hold the residues
// of an integer X with |X| ≤ 2^magBits where subK ≥ SubBasisFor(magBits).
// Input channels may be lazily reduced (< 2p); written channels are
// canonical. The per-coefficient cost is subK Shoup multiplications plus
// one word-dot-product and fold per missing channel — far below the
// forward/inverse transforms the narrower accumulation avoided.
func (c *Context) ExtendResidues(x *Poly, subK int) {
	k := c.K()
	if subK >= k {
		return
	}
	if subK < 1 {
		panic("dcrt: ExtendResidues sub-basis length out of range")
	}
	st := c.extFor(subK)
	if subK == 2 && k == 3 {
		// Unrolled two-limb → one-limb form, the shape of every 54-bit
		// parameter set, with the constants held in registers.
		x0, x1, x2 := x.Coeffs[0], x.Coeffs[1], x.Coeffs[2]
		l0, l1 := &st.limbs[0], &st.limbs[1]
		p0, p1 := l0.p, l1.p
		d0, d1 := l0.delta, l1.delta
		om0, om1 := l0.omega, l1.omega
		os0, os1 := l0.omegaShoup, l1.omegaShoup
		nu0, nu1 := l0.nu, l1.nu
		c0, c1 := st.cT[0][0], st.cT[0][1]
		lift := st.liftT[0]
		rt := c.Tabs[2].R
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
				ph, pl := bits.Mul64(g0, nu0)
				sLo, sHi := ph<<32|pl>>32, uint64(0)
				var cc uint64
				ph, pl = bits.Mul64(g1, nu1)
				_, cc = bits.Add64(sLo, ph<<32|pl>>32, 0)
				sHi += cc
				aHi, aLo := bits.Mul64(g0, c0)
				ph, pl = bits.Mul64(g1, c1)
				aLo, cc = bits.Add64(aLo, pl, 0)
				aHi += ph + cc
				x2[j] = rt.Sub(rt.ReduceWide(aHi, aLo), lift[sHi])
			}
		})
		return
	}
	lt := st.limbs
	xs := x.Coeffs[:subK]
	parallelChunks(c.N, func(lo, hi int) {
		var g [maxConvLimbs]uint64
		for j := lo; j < hi; j++ {
			var sLo, sHi, cc uint64
			for i := range lt {
				l := &lt[i]
				gij := l.gamma(xs[i][j])
				g[i] = gij
				ph, pl := bits.Mul64(gij, l.nu)
				sLo, cc = bits.Add64(sLo, ph<<32|pl>>32, 0)
				sHi += cc
			}
			for tgt := subK; tgt < k; tgt++ {
				rt := c.Tabs[tgt].R
				var aLo, aHi uint64
				row := st.cT[tgt-subK]
				for i := 0; i < subK; i++ {
					ph, pl := bits.Mul64(g[i], row[i])
					aLo, cc = bits.Add64(aLo, pl, 0)
					aHi += ph + cc
				}
				x.Coeffs[tgt][j] = rt.Sub(rt.ReduceWide(aHi, aLo), st.liftT[tgt-subK][sHi])
			}
		}
	})
}
