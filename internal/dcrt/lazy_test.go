package dcrt

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/limb32"
	"repro/internal/poly"
)

// Tests for the deferred-multiplication primitives: the residue-domain
// scale-and-round, the digit decomposition from conversion words, the
// exact sub-basis extension, the centered NTT re-entry, and the fused
// key-switching wrappers — each against big.Int or per-digit strict
// oracles over the adversarial inputs of baseconv_test.go.

// TestScaleRoundResiduesOracle: the residue-domain rescale holds the
// exact integer Y = ⌊t·X/q⌉ in every limb channel, matching the packed
// ScaleRound output and the big.Int rounding.
func TestScaleRoundResiduesOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(21))
	for _, c := range convContexts(t, n) {
		vals := testValues(c, n, c.BoundBits, 65537, rng)
		x := residuePoly(c, vals)
		nttX := c.NewPoly()
		for i := range nttX.Coeffs {
			copy(nttX.Coeffs[i], x.Coeffs[i])
			c.Tabs[i].Forward(nttX.Coeffs[i])
		}
		sr := c.ScaleRounder(65537)
		res := sr.ScaleRoundResidues(nttX)
		tb := new(big.Int).SetUint64(65537)
		for j, v := range vals {
			num := new(big.Int).Mul(v, tb)
			want := divRound(num, c.Mod.QBig)
			for i, p := range c.Basis.Primes {
				pb := new(big.Int).SetUint64(p)
				wantRes := new(big.Int).Mod(want, pb).Uint64()
				got := res.Coeffs[i][j]
				if got >= p {
					t.Fatalf("q=%d bits limb %d coeff %d: residue %d not canonical", c.Mod.Bits(), i, j, got)
				}
				if got != wantRes {
					t.Fatalf("q=%d bits limb %d coeff %d: got %d want %d", c.Mod.Bits(), i, j, got, wantRes)
				}
			}
		}
		c.PutScratch(res)
	}
}

// divRound is the round-half-away-from-zero division the BFV rescale is
// pinned to (t/q with q odd never ties).
func divRound(num, den *big.Int) *big.Int {
	q2 := new(big.Int).Lsh(num, 1)
	q2.Add(q2, new(big.Int).Mul(big.NewInt(int64(num.Sign())), den))
	den2 := new(big.Int).Lsh(den, 1)
	return q2.Quo(q2, den2)
}

// TestScaleRoundDigitsOracle: rescale + word-level digit decomposition
// equals ScaleRound followed by DigitsToRNS, bit for bit, over the
// populated sub-basis channels.
func TestScaleRoundDigitsOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(22))
	for _, c := range convContexts(t, n) {
		vals := testValues(c, n, c.BoundBits, 65537, rng)
		base := uint(13)
		count := (c.Mod.Bits() + int(base) - 1) / int(base)
		for _, limbs := range []int{1, c.K()} {
			mk := func() *Poly {
				x := residuePoly(c, vals)
				for i := range x.Coeffs {
					c.Tabs[i].Forward(x.Coeffs[i])
				}
				return x
			}
			sr := c.ScaleRounder(65537)
			digits := sr.ScaleRoundDigits(mk(), base, count, limbs)
			packed := poly.NewPoly(n, c.Mod.W)
			sr.ScaleRound(packed, mk())
			want := c.DigitsToRNS(packed, base, count)
			for d := range digits {
				for i := 0; i < limbs; i++ {
					r := c.Tabs[i].R
					for j := 0; j < n; j++ {
						g := digits[d].Coeffs[i][j] % r.Q
						w := want[d].Coeffs[i][j] % r.Q
						if g != w {
							t.Fatalf("q=%d bits limbs=%d digit %d limb %d coeff %d: %d != %d",
								c.Mod.Bits(), limbs, d, i, j, g, w)
						}
					}
				}
				c.PutScratch(digits[d])
				c.PutScratch(want[d])
			}
		}
	}
}

// TestExtendResiduesOracle: the sub-basis extension recovers exactly the
// missing limb channels for integers inside the prefix window, including
// the corners 0, 1, and 2^magBits−1 and signed values.
func TestExtendResiduesOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(23))
	for _, c := range convContexts(t, n) {
		for subK := 1; subK < c.K(); subK++ {
			// Determine the magnitude this prefix can extend exactly.
			pSub := big.NewInt(1)
			for i := 0; i < subK; i++ {
				pSub.Mul(pSub, new(big.Int).SetUint64(c.Basis.Primes[i]))
			}
			magBits := pSub.BitLen() - 4
			if magBits < 2 {
				continue
			}
			if got := c.SubBasisFor(magBits); got > subK {
				t.Fatalf("SubBasisFor(%d)=%d > %d", magBits, got, subK)
			}
			bound := new(big.Int).Lsh(big.NewInt(1), uint(magBits))
			vals := make([]*big.Int, n)
			vals[0] = big.NewInt(0)
			vals[1] = big.NewInt(1)
			vals[2] = new(big.Int).Sub(bound, big.NewInt(1))
			vals[3] = new(big.Int).Neg(new(big.Int).Sub(bound, big.NewInt(1)))
			for j := 4; j < n; j++ {
				v := new(big.Int).Rand(rng, bound)
				if rng.Intn(2) == 0 {
					v.Neg(v)
				}
				vals[j] = v
			}
			x := residuePoly(c, vals)
			// Clobber the channels the extension must recompute.
			for i := subK; i < c.K(); i++ {
				for j := range x.Coeffs[i] {
					x.Coeffs[i][j] = 0xdeadbeef % c.Basis.Primes[i]
				}
			}
			c.ExtendResidues(x, subK)
			for i := subK; i < c.K(); i++ {
				pb := new(big.Int).SetUint64(c.Basis.Primes[i])
				for j, v := range vals {
					want := new(big.Int).Mod(v, pb).Uint64()
					if x.Coeffs[i][j] != want {
						t.Fatalf("q=%d bits subK=%d limb %d coeff %d (x=%v): got %d want %d",
							c.Mod.Bits(), subK, i, j, v, x.Coeffs[i][j], want)
					}
				}
			}
		}
	}
}

// TestCenteredNTTFromResiduesOracle: re-entering the NTT domain from an
// exact-integer residue element matches ToRNSCentered of the packed
// mod-q polynomial, slot for slot (mod p — the re-entry transforms
// lazily).
func TestCenteredNTTFromResiduesOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(24))
	for _, c := range convContexts(t, n) {
		vals := testValues(c, n, c.BoundBits, 1, rng)
		x := residuePoly(c, vals)
		got := c.CenteredNTTFromResidues(x)
		packed := poly.NewPoly(n, c.Mod.W)
		c.FromResidues(packed, x)
		want := c.ToRNSCentered(packed)
		for i := range got.Coeffs {
			r := c.Tabs[i].R
			for j := 0; j < n; j++ {
				if got.Coeffs[i][j]%r.Q != want.Coeffs[i][j]%r.Q {
					t.Fatalf("q=%d bits limb %d slot %d: %d != %d mod p",
						c.Mod.Bits(), i, j, got.Coeffs[i][j], want.Coeffs[i][j])
				}
			}
		}
		c.PutScratch(got)
	}
}

// TestAddLazyNTTBounds: the lazy add maintains the < 2p bound and the
// mod-p values, from pinned corner operands.
func TestAddLazyNTTBounds(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(25))
	c := convContexts(t, n)[0]
	a := c.NewPoly()
	b := c.NewPoly()
	for i, p := range c.Basis.Primes {
		pins := []uint64{0, p - 1, 2*p - 1}
		for j := 0; j < n; j++ {
			if j < len(pins) {
				a.Coeffs[i][j] = pins[j]
				b.Coeffs[i][j] = pins[len(pins)-1-j]
			} else {
				a.Coeffs[i][j] = rng.Uint64() % (2 * p)
				b.Coeffs[i][j] = rng.Uint64() % (2 * p)
			}
		}
	}
	dst := c.NewPoly()
	c.AddLazyNTT(dst, a, b)
	for i, p := range c.Basis.Primes {
		r := c.Tabs[i].R
		for j := 0; j < n; j++ {
			if dst.Coeffs[i][j] >= 2*p {
				t.Fatalf("limb %d slot %d: %d ≥ 2p", i, j, dst.Coeffs[i][j])
			}
			want := (a.Coeffs[i][j]%p + b.Coeffs[i][j]%p) % p
			if dst.Coeffs[i][j]%r.Q != want {
				t.Fatalf("limb %d slot %d: wrong value", i, j)
			}
		}
	}
}

// TestMulPairAddNTTOracle: the fused middle-tensor kernel equals
// MulNTT + MulAddNTT on lazily-bounded operands.
func TestMulPairAddNTTOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(26))
	c := convContexts(t, n)[0]
	mk := func(lazy uint64) *Poly {
		p := c.NewPoly()
		for i, prime := range c.Basis.Primes {
			bound := lazy * prime
			pins := []uint64{0, prime - 1, bound - 1}
			for j := 0; j < n; j++ {
				if j < len(pins) {
					p.Coeffs[i][j] = pins[j]
				} else {
					p.Coeffs[i][j] = rng.Uint64() % bound
				}
			}
		}
		return p
	}
	a0, b0 := mk(2), mk(1)
	a1, b1 := mk(2), mk(1)
	got := c.NewPoly()
	c.MulPairAddNTT(got, a0, b0, a1, b1)
	strict := func(p *Poly) *Poly {
		out := c.NewPoly()
		for i := range p.Coeffs {
			r := c.Tabs[i].R
			for j := 0; j < n; j++ {
				out.Coeffs[i][j] = p.Coeffs[i][j] % r.Q
			}
		}
		return out
	}
	want := c.NewPoly()
	c.MulNTT(want, strict(a0), strict(b0))
	c.MulAddNTT(want, strict(a1), strict(b1))
	for i := range got.Coeffs {
		r := c.Tabs[i].R
		for j := 0; j < n; j++ {
			if got.Coeffs[i][j]%r.Q != want.Coeffs[i][j] {
				t.Fatalf("limb %d slot %d: %d != %d", i, j, got.Coeffs[i][j], want.Coeffs[i][j])
			}
		}
	}
}

// TestFusedKeySwitchKernels: MulPairAllNTT / MulPairLimbsNTT /
// GaloisAccAllNTT equal the strict per-digit kernels over lazy digit
// sets, including sub-basis limb restriction.
func TestFusedKeySwitchKernels(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(27))
	c := convContexts(t, n)[0]
	k := c.K()
	const nd = 3
	mk := func(lazy uint64) *Poly {
		p := c.NewPoly()
		for i, prime := range c.Basis.Primes {
			bound := lazy * prime
			for j := 0; j < n; j++ {
				p.Coeffs[i][j] = rng.Uint64() % bound
			}
		}
		return p
	}
	var k0, k1, digits []*Poly
	for d := 0; d < nd; d++ {
		k0 = append(k0, mk(1))
		k1 = append(k1, mk(1))
		digits = append(digits, mk(4))
	}
	strictDigit := func(d *Poly) *Poly {
		out := c.NewPoly()
		for i := range d.Coeffs {
			r := c.Tabs[i].R
			for j := 0; j < n; j++ {
				out.Coeffs[i][j] = d.Coeffs[i][j] % r.Q
			}
		}
		return out
	}
	idx := GaloisNTTIndices(n, 3)

	seed := mk(1)
	cmp := func(name string, g, w *Poly, limbs int) {
		t.Helper()
		for i := 0; i < limbs; i++ {
			r := c.Tabs[i].R
			for j := 0; j < n; j++ {
				if g.Coeffs[i][j]%r.Q != w.Coeffs[i][j]%r.Q {
					t.Fatalf("%s: limb %d slot %d: %d != %d", name, i, j, g.Coeffs[i][j], w.Coeffs[i][j])
				}
			}
		}
	}

	// Pair kernel, full basis (MulPairAllNTT) and every sub-basis prefix,
	// vs per-digit MulAddNTT from zero. The outputs start dirty: the
	// kernel overwrites rather than accumulates.
	for limbs := 1; limbs <= k; limbs++ {
		g0, g1 := mk(1), mk(1)
		if limbs == k {
			c.MulPairAllNTT(g0, g1, k0, k1, digits)
		} else {
			c.MulPairLimbsNTT(g0, g1, k0, k1, digits, limbs)
		}
		w0, w1 := c.NewPoly(), c.NewPoly()
		for d := 0; d < nd; d++ {
			sd := strictDigit(digits[d])
			c.MulAddNTT(w0, k0[d], sd)
			c.MulAddNTT(w1, k1[d], sd)
		}
		cmp("mulPairLimbs", g0, w0, limbs)
		cmp("mulPairLimbs", g1, w1, limbs)
	}

	// Gathered (Galois) kernel vs per-digit PermuteNTT + MulAddNTT on the
	// same seeded accumulators.
	gG0, gG1 := c.NewPoly(), c.NewPoly()
	gW0, gW1 := c.NewPoly(), c.NewPoly()
	for _, acc := range []*Poly{gG0, gG1, gW0, gW1} {
		for i := range acc.Coeffs {
			copy(acc.Coeffs[i], seed.Coeffs[i])
		}
	}
	c.GaloisAccAllNTT(gG0, gG1, k0, k1, digits, idx)
	for d := 0; d < nd; d++ {
		sd := strictDigit(digits[d])
		perm := c.NewPoly()
		c.PermuteNTT(perm, sd, idx)
		c.MulAddNTT(gW0, k0[d], perm)
		c.MulAddNTT(gW1, k1[d], perm)
	}
	cmp("galoisAcc", gG0, gW0, k)
	cmp("galoisAcc", gG1, gW1, k)
}

// TestDigitsToRNSWordsOracle: word-level digit extraction equals the
// packed-polynomial decomposition across the q word widths.
func TestDigitsToRNSWordsOracle(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(28))
	for _, c := range convContexts(t, n) {
		vals := make([]*big.Int, n)
		for j := range vals {
			vals[j] = new(big.Int).Rand(rng, c.Mod.QBig)
		}
		lo := make([]uint64, n)
		hi := make([]uint64, n)
		for j, v := range vals {
			lo[j] = bigWord(v, 0)
			hi[j] = bigWord(v, 1)
		}
		base := uint(13)
		count := (c.Mod.Bits() + int(base) - 1) / int(base)
		var hiArg []uint64
		if c.Mod.Bits() > 64 {
			hiArg = hi
		}
		got := c.DigitsToRNSWords(lo, hiArg, base, count, c.K())
		p := poly.NewPoly(n, c.Mod.W)
		for j, v := range vals {
			p.Coeff(j).Set(limb32.FromBig(v, c.Mod.W))
		}
		want := c.DigitsToRNS(p, base, count)
		for d := range got {
			for i := range got[d].Coeffs {
				r := c.Tabs[i].R
				for j := 0; j < n; j++ {
					if got[d].Coeffs[i][j]%r.Q != want[d].Coeffs[i][j]%r.Q {
						t.Fatalf("q=%d bits digit %d limb %d slot %d mismatch", c.Mod.Bits(), d, i, j)
					}
				}
			}
			c.PutScratch(got[d])
			c.PutScratch(want[d])
		}
	}
}
