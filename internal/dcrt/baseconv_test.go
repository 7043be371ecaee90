package dcrt

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/limb32"
	"repro/internal/poly"
)

// Property tests for the fast base conversion and the RNS-native
// scale-and-round, against big.Int oracles, over adversarial inputs:
// values at the ±2^BoundBits extremes, values whose remainder x mod q and
// (for the rounding kernels) t·x mod q lands next to the ±q/2 centering
// boundary, tiny values near zero (the lift-counter danger zone the
// quarter shift exists for), and bulk random sweeps.

// residuePoly builds a residue-domain (non-NTT) element whose channel i
// holds vals[j] mod p_i — the exact-integer representation convModQ and
// ScaleRound consume after intt.
func residuePoly(c *Context, vals []*big.Int) *Poly {
	p := c.NewPoly()
	t := new(big.Int)
	for i, prime := range c.Basis.Primes {
		pb := new(big.Int).SetUint64(prime)
		for j, v := range vals {
			p.Coeffs[i][j] = t.Mod(v, pb).Uint64()
		}
	}
	return p
}

// testValues returns n signed integers of magnitude at most 2^magBits
// covering the adversarial corners for the given context and scale factor
// t (1 for the plain conversion).
func testValues(c *Context, n, magBits int, tMod uint64, rng *rand.Rand) []*big.Int {
	q := c.Mod.QBig
	bound := new(big.Int).Lsh(big.NewInt(1), uint(magBits))
	vals := make([]*big.Int, 0, n)
	add := func(v *big.Int) {
		if len(vals) < n {
			vals = append(vals, v)
		}
	}
	// Extremes and near-zero (the lift counter's danger zone without the
	// quarter shift).
	add(new(big.Int).Set(bound))
	add(new(big.Int).Neg(bound))
	add(big.NewInt(0))
	add(big.NewInt(1))
	add(big.NewInt(-1))
	add(new(big.Int).Sub(bound, big.NewInt(1)))
	add(new(big.Int).Sub(big.NewInt(0), new(big.Int).Sub(bound, big.NewInt(1))))
	// Values v = m·q + s for random m: s = (q−1)/2 + off puts v mod q on
	// and beside the centering boundary (the conversion and the centered
	// re-entry decide on it), and s = t⁻¹·((q−1)/2 + off) does the same
	// for t·v mod q, the remainder the rounding kernels decide on.
	half := new(big.Int).Rsh(q, 1) // (q-1)/2 for odd q
	lift := func(s *big.Int, neg bool) *big.Int {
		m := new(big.Int).Rand(rng, new(big.Int).Div(bound, q))
		v := new(big.Int).Mul(m, q)
		v.Add(v, s)
		if neg {
			v.Neg(v)
		}
		return v
	}
	for _, off := range []int64{-1, 0, 1, 2} {
		add(lift(new(big.Int).Add(half, big.NewInt(off)), rng.Intn(2) == 0))
	}
	if tMod != 1 {
		tInv := new(big.Int).ModInverse(new(big.Int).SetUint64(tMod), q)
		for _, off := range []int64{-1, 0, 1, 2} {
			s := new(big.Int).Add(half, big.NewInt(off))
			s.Mul(s, tInv).Mod(s, q)
			add(lift(s, false))
			add(lift(s, true))
		}
	}
	// Random fill, signed, up to the full bound.
	for len(vals) < n {
		v := new(big.Int).Rand(rng, bound)
		if rng.Intn(2) == 0 {
			v.Neg(v)
		}
		add(v)
	}
	return vals
}

// productionBound is the bound bfv sizes ParamsBatching's context for
// (2·109 + log₂4096 + 1, plus one): a K = 4 basis, where the
// 2·bits + 40 contexts give the 109-bit modulus K = 5.
const productionBound = 232

// convContexts returns a context per paper modulus at BoundBits
// 2·bits + 40, then the 109-bit modulus at the production bound.
func convContexts(t *testing.T, n int) []*Context {
	t.Helper()
	var out []*Context
	get := func(q *big.Int, boundBits int) *Context {
		mod, err := poly.NewModulus(q)
		if err != nil {
			t.Fatal(err)
		}
		c, err := GetContext(mod, n, boundBits)
		if err != nil {
			t.Fatal(err)
		}
		if !c.RNSNative() {
			t.Fatalf("context for %d-bit modulus is not RNS-native", mod.Bits())
		}
		return c
	}
	var q *big.Int
	for _, qs := range testModuli {
		q, _ = new(big.Int).SetString(qs, 10)
		out = append(out, get(q, 2*q.BitLen()+40))
	}
	prod := get(q, productionBound) // the last paper modulus: 109 bits
	if prod.K() != 4 {
		t.Fatalf("production-shape context has %d limbs, want 4", prod.K())
	}
	return append(out, prod)
}

// TestConvModQOracle drives the fast base conversion against x mod q
// computed with big.Int, over boundary and random inputs.
func TestConvModQOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	for _, c := range convContexts(t, n) {
		vals := testValues(c, n, c.BoundBits, 1, rng)
		x := residuePoly(c, vals)
		lo := make([]uint64, n)
		var hi []uint64
		if c.conv.qr.words == 2 {
			hi = make([]uint64, n)
		}
		c.convModQ(x, &c.conv.unit, lo, hi)
		for j, v := range vals {
			want := new(big.Int).Mod(v, c.Mod.QBig)
			got := new(big.Int).SetUint64(lo[j])
			if hi != nil {
				got.Or(got, new(big.Int).Lsh(new(big.Int).SetUint64(hi[j]), 64))
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("q=%d bits, coeff %d (x=%v): convModQ=%v want %v",
					c.Mod.Bits(), j, v, got, want)
			}
		}
	}
}

// TestReduce3Oracle drives the two-word conversion's reduction against
// big.Int over its proven domain x < 2⁶³·q: the corners, random
// three-word inputs over the whole domain and over its top 1/256 (where
// the quotient estimate errs most), and the largest recombination sum any
// table can form — every γ_i = p_i − 1 against C_i of t = 1, 2, 16 and
// 65537, plus the largest lift entry. Beside the contexts' moduli it
// sweeps q = ⌈2^(b+63)/(2⁶³+3)⌉ (made odd) for b = 65, 109, 124: q sits
// just below 2^b and m = ⌊2^(b+63)/q⌋ drops almost a whole unit, so near
// the top of the domain the estimate is two short and both corrective
// subtractions run.
func TestReduce3Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	one := big.NewInt(1)
	sweep := func(qr *qring, q *big.Int, extra ...*big.Int) {
		t.Helper()
		bound := new(big.Int).Lsh(q, 63)
		check := func(what string, x *big.Int) {
			t.Helper()
			if x.Cmp(bound) >= 0 {
				t.Fatalf("q=%v: %s input %v outside the proven domain", q, what, x)
			}
			lo, hi := qr.reduce3(bigWord(x, 0), bigWord(x, 1), bigWord(x, 2))
			got := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
			got.Or(got, new(big.Int).SetUint64(lo))
			if want := new(big.Int).Mod(x, q); got.Cmp(want) != 0 {
				t.Fatalf("q=%v: reduce3(%s %v) = %v, want %v", q, what, x, got, want)
			}
		}
		for _, x := range []*big.Int{
			big.NewInt(0), new(big.Int).Sub(q, one), new(big.Int).Set(q),
			new(big.Int).Lsh(q, 1), new(big.Int).Sub(bound, one),
		} {
			check("corner", x)
		}
		top := new(big.Int).Rsh(bound, 8)
		for i := 0; i < 2048; i++ {
			check("random", new(big.Int).Rand(rng, bound))
			x := new(big.Int).Sub(bound, one)
			check("near-top", x.Sub(x, new(big.Int).Rand(rng, top)))
		}
		for _, x := range extra {
			check("largest sum", x)
		}
	}
	for _, c := range convContexts(t, 64) {
		if c.conv.qr.words != 2 {
			continue
		}
		var sums []*big.Int
		for _, tMod := range []uint64{1, 2, 16, 65537} {
			tb := newConvTabs(c, tMod)
			x := new(big.Int)
			for _, l := range tb.limbs {
				ci := new(big.Int).Lsh(new(big.Int).SetUint64(l.cHi), 64)
				ci.Or(ci, new(big.Int).SetUint64(l.cLo))
				x.Add(x, ci.Mul(ci, new(big.Int).SetUint64(l.p-1)))
			}
			maxE := new(big.Int)
			for e := range tb.eLo {
				ee := new(big.Int).Lsh(new(big.Int).SetUint64(tb.eHi[e]), 64)
				ee.Or(ee, new(big.Int).SetUint64(tb.eLo[e]))
				if ee.Cmp(maxE) > 0 {
					maxE = ee
				}
			}
			sums = append(sums, x.Add(x, maxE))
		}
		sweep(c.conv.qr, c.Mod.QBig, sums...)
	}
	for _, b := range []uint{65, 109, 124} {
		q := new(big.Int).Lsh(one, b+63)
		d := new(big.Int).Add(new(big.Int).Lsh(one, 63), big.NewInt(3))
		q.Add(q, new(big.Int).Sub(d, one)).Div(q, d).SetBit(q, 0, 1)
		qr, err := newQring(q)
		if err != nil {
			t.Fatal(err)
		}
		sweep(qr, q)
	}
}

// TestScaleRoundOracle drives the full RNS-native rescale against the
// big.Int round-half-away-from-zero oracle, including remainders t·x mod q
// placed hard against the ±q/2 centering boundary.
func TestScaleRoundOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(11))
	for _, tMod := range []uint64{2, 16, 65537} {
		for _, c := range convContexts(t, n) {
			vals := testValues(c, n, c.BoundBits, tMod, rng)
			x := residuePoly(c, vals)
			// ScaleRound expects the NTT domain; transform the residues in.
			for i := range x.Coeffs {
				c.Tabs[i].Forward(x.Coeffs[i])
			}
			got := poly.NewPoly(n, c.Mod.W)
			c.ScaleRounder(tMod).ScaleRound(got, x)
			tBig := new(big.Int).SetUint64(tMod)
			half := new(big.Int).Rsh(c.Mod.QBig, 1)
			for j, v := range vals {
				num := new(big.Int).Mul(v, tBig)
				if num.Sign() >= 0 {
					num.Add(num, half)
				} else {
					num.Sub(num, half)
				}
				num.Quo(num, c.Mod.QBig)
				num.Mod(num, c.Mod.QBig)
				if got.Coeff(j).Big().Cmp(num) != 0 {
					t.Fatalf("q=%d bits t=%d coeff %d (x=%v): ScaleRound=%v want %v",
						c.Mod.Bits(), tMod, j, v, got.Coeff(j).Big(), num)
				}
			}
		}
	}
}

// TestScaleRoundParallel runs limb-parallel ScaleRound from many
// goroutines against precomputed answers — under -race this is the
// kernel's thread-safety proof (shared context, pooled scratch, shared
// rounder cache).
func TestScaleRoundParallel(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(13))
	c := convContexts(t, n)[1] // 54-bit modulus
	sr := c.ScaleRounder(16)
	inputs := make([]*Poly, 8)
	want := make([]*poly.Poly, len(inputs))
	for g := range inputs {
		vals := testValues(c, n, c.BoundBits, 16, rng)
		x := residuePoly(c, vals)
		for i := range x.Coeffs {
			c.Tabs[i].Forward(x.Coeffs[i])
		}
		inputs[g] = x
		want[g] = poly.NewPoly(n, c.Mod.W)
		sr.ScaleRound(want[g], x)
	}
	var wg sync.WaitGroup
	errc := make(chan string, 4*len(inputs))
	for rep := 0; rep < 4; rep++ {
		for g := range inputs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got := poly.NewPoly(n, c.Mod.W)
				c.ScaleRounder(16).ScaleRound(got, inputs[g])
				if !got.Equal(want[g]) {
					errc <- "parallel ScaleRound diverged"
				}
			}(g)
		}
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

// TestDigitsToRNSOracle checks the limb-shift digit decomposition + NTT
// against the big.Int shift-and-mask oracle recombined through FromRNS.
func TestDigitsToRNSOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(17))
	for _, c := range convContexts(t, n) {
		base := uint(13)
		count := (c.Mod.Bits() + int(base) - 1) / int(base)
		p := poly.NewPoly(n, c.Mod.W)
		for j := 0; j < n; j++ {
			v := new(big.Int).Rand(rng, c.Mod.QBig)
			p.Coeff(j).Set(limb32.FromBig(v, c.Mod.W))
		}
		digits := c.DigitsToRNS(p, base, count)
		mask := new(big.Int).SetUint64(1<<base - 1)
		for d, dp := range digits {
			back := c.FromRNS(dp)
			for j := 0; j < n; j++ {
				want := new(big.Int).Rsh(p.Coeff(j).Big(), uint(d)*base)
				want.And(want, mask)
				if back.Coeff(j).Big().Cmp(want) != 0 {
					t.Fatalf("q=%d bits digit %d coeff %d: got %v want %v",
						c.Mod.Bits(), d, j, back.Coeff(j).Big(), want)
				}
			}
		}
	}
}

// TestRoundModTOracle drives the RNS-native decryption tail — the
// ⌊t·X/q⌉ mod t fold — against the big.Int round-half-away-from-zero +
// Euclidean-Mod oracle used by the schoolbook Decrypt.
func TestRoundModTOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(17))
	for _, tMod := range []uint64{2, 16, 65537} {
		for _, c := range convContexts(t, n) {
			sr := c.ScaleRounder(tMod)
			// The decryption phase magnitude is ~q·n²; give the oracle the
			// widest window the limb-0 read supports.
			magBits := 0
			for m := 1; m < c.BoundBits; m++ {
				if sr.CanRoundModT(m) {
					magBits = m
				}
			}
			if magBits < c.Mod.Bits()+10 {
				t.Fatalf("q=%d bits t=%d: RoundModT window %d too narrow for decryption",
					c.Mod.Bits(), tMod, magBits)
			}
			// The window is open (|X| < 2^magBits): fold testValues' two
			// ±2^magBits extremes to 0 and keep everything else, up to the
			// ±(2^magBits − 1) corners.
			vals := testValues(c, n, magBits, tMod, rng)
			bound := new(big.Int).Lsh(big.NewInt(1), uint(magBits))
			for _, v := range vals {
				if v.CmpAbs(bound) >= 0 {
					v.Mod(v, bound)
				}
			}
			x := residuePoly(c, vals)
			for i := range x.Coeffs {
				c.Tabs[i].Forward(x.Coeffs[i])
			}
			out := make([]uint64, n)
			sr.RoundModT(x, out)
			tBig := new(big.Int).SetUint64(tMod)
			half := new(big.Int).Rsh(c.Mod.QBig, 1)
			for j, v := range vals {
				num := new(big.Int).Mul(v, tBig)
				if num.Sign() >= 0 {
					num.Add(num, half)
				} else {
					num.Sub(num, half)
				}
				num.Quo(num, c.Mod.QBig)
				num.Mod(num, tBig)
				if out[j] != num.Uint64() {
					t.Fatalf("q=%d bits t=%d coeff %d (x=%v): RoundModT=%d want %v",
						c.Mod.Bits(), tMod, j, v, out[j], num)
				}
			}
		}
	}
}
