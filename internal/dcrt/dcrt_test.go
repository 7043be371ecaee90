package dcrt

import (
	"math/big"
	"testing"

	"repro/internal/limb32"
	"repro/internal/nt"
	"repro/internal/poly"
	"repro/internal/sampling"
)

// paper moduli (params.go literals; kept in sync by the bfv differential
// tests, which exercise the real Parameters).
var testModuli = []string{
	"134217689",                         // 27-bit
	"18014398509481951",                 // 54-bit
	"649037107316853453566312041152481", // 109-bit
}

func randPoly(src *sampling.Source, n int, mod *poly.Modulus) *poly.Poly {
	p := poly.NewPoly(n, mod.W)
	src.UniformCoeffs(p.C, mod.Q)
	return p
}

func TestMulRqMatchesSchoolbook(t *testing.T) {
	src := sampling.NewSourceFromUint64(7)
	for _, qs := range testModuli {
		q, _ := new(big.Int).SetString(qs, 10)
		mod, err := poly.NewModulus(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{64, 256} {
			ctx, err := GetContext(mod, n, 0)
			if err != nil {
				t.Fatalf("q=%s n=%d: %v", qs, n, err)
			}
			a := randPoly(src, n, mod)
			b := randPoly(src, n, mod)
			want := poly.NewPoly(n, mod.W)
			poly.MulNegacyclic(want, a, b, mod)
			got := ctx.MulRq(a, b)
			if !got.Equal(want) {
				t.Errorf("q=%s n=%d: MulRq differs from schoolbook", qs, n)
			}
		}
	}
}

func TestRoundTripAndCentered(t *testing.T) {
	q, _ := new(big.Int).SetString(testModuli[1], 10)
	mod, _ := poly.NewModulus(q)
	ctx, err := GetContext(mod, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := sampling.NewSourceFromUint64(8)
	p := randPoly(src, 128, mod)

	if got := ctx.FromRNS(ctx.ToRNS(p)); !got.Equal(p) {
		t.Error("ToRNS/FromRNS round trip differs")
	}

	// Centered decomposition must recombine to the centered lift.
	want := p.ToCenteredCoeffs(mod)
	got := recombineCentered(t, ctx, ctx.ToRNSCentered(p))
	for i := range want {
		if want[i].Cmp(got[i]) != 0 {
			t.Fatalf("coeff %d: centered lift %v != %v", i, got[i], want[i])
		}
	}
}

// boundaryCoeffs returns the coefficients where a word kernel's borrow,
// word split or centering bit can go wrong for mod: 0, 1, ⌊q/2⌋,
// ⌊q/2⌋ + 1, q − 1, and 2³²ᵏ − 1 and 2³²ᵏ for every k below the limb
// width.
func boundaryCoeffs(mod *poly.Modulus) []*big.Int {
	one := big.NewInt(1)
	vals := []*big.Int{
		big.NewInt(0), one,
		new(big.Int).Set(mod.Half), new(big.Int).Add(mod.Half, one),
		new(big.Int).Sub(mod.QBig, one),
	}
	for k := 1; k < mod.W; k++ {
		v := new(big.Int).Lsh(one, uint(32*k))
		vals = append(vals, new(big.Int).Sub(v, one), v)
	}
	return vals
}

// TestEntryBoundaryOracle pins the entry kernel — ToRNS and ToRNSCentered,
// at every word width — to the big.Int lifts (the canonical value, and
// ToCenteredCoeffs) on boundaryCoeffs amid random coefficients, and checks
// that both forms come out canonical (< p).
func TestEntryBoundaryOracle(t *testing.T) {
	const n = 64
	for _, c := range convContexts(t, n) {
		mod := c.Mod
		p := randPoly(sampling.NewSourceFromUint64(uint64(mod.Bits())), n, mod)
		for j, v := range boundaryCoeffs(mod) {
			p.Coeff(2*j + 1).Set(limb32.FromBig(v, mod.W))
		}
		// The kernel's own output: centered residues below 4p, the
		// forward transform's input bound.
		w := c.getConvOut()
		c.unpackModQ(w.lo, w.hi, p)
		ch := make([]uint64, n)
		for i, prime := range c.Basis.Primes {
			c.enterChannel(ch, i, w.lo, w.hi, true)
			pb := new(big.Int).SetUint64(prime)
			for j, v := range p.ToCenteredCoeffs(mod) {
				if ch[j] >= 4*prime || ch[j]%prime != new(big.Int).Mod(v, pb).Uint64() {
					t.Fatalf("q=%d bits limb %d slot %d: entered %d, want %v mod p below 4p", mod.Bits(), i, j, ch[j], v)
				}
			}
		}
		c.putConvOut(w)
		for _, centered := range []bool{false, true} {
			form, want := c.ToRNS(p), p.ToBigCoeffs()
			if centered {
				form, want = c.ToRNSCentered(p), p.ToCenteredCoeffs(mod)
			}
			for i, ch := range form.Coeffs {
				for j, v := range ch {
					if v >= c.Basis.Primes[i] {
						t.Fatalf("q=%d bits centered=%v limb %d slot %d: %d is not below p", mod.Bits(), centered, i, j, v)
					}
				}
			}
			for j, v := range recombineCentered(t, c, form) {
				if v.Cmp(want[j]) != 0 {
					t.Fatalf("q=%d bits centered=%v coeff %d: entered %v, want %v", mod.Bits(), centered, j, v, want[j])
				}
			}
		}
	}
}

// TestTensorAccumulation checks MulAddNTT against an explicit integer
// computation: d = a0·b1 + a1·b0 over Z on centered lifts, the BFV cross
// term.
func TestTensorAccumulation(t *testing.T) {
	q, _ := new(big.Int).SetString(testModuli[0], 10)
	mod, _ := poly.NewModulus(q)
	n := 64
	ctx, err := GetContext(mod, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := sampling.NewSourceFromUint64(9)
	a0, a1 := randPoly(src, n, mod), randPoly(src, n, mod)
	b0, b1 := randPoly(src, n, mod), randPoly(src, n, mod)

	ra0, ra1 := ctx.ToRNSCentered(a0), ctx.ToRNSCentered(a1)
	rb0, rb1 := ctx.ToRNSCentered(b0), ctx.ToRNSCentered(b1)
	d := ctx.NewPoly()
	ctx.MulNTT(d, ra0, rb1)
	ctx.MulAddNTT(d, ra1, rb0)
	got := recombineCentered(t, ctx, d)

	want := mulZRef(a0.ToCenteredCoeffs(mod), b1.ToCenteredCoeffs(mod))
	for i, c := range mulZRef(a1.ToCenteredCoeffs(mod), b0.ToCenteredCoeffs(mod)) {
		want[i].Add(want[i], c)
	}
	for i := range want {
		if want[i].Cmp(got[i]) != 0 {
			t.Fatalf("coeff %d: %v != %v", i, got[i], want[i])
		}
	}
}

// recombineCentered is the big.Int CRT reference: it leaves the NTT
// domain and recombines every coefficient to its centered integer value.
func recombineCentered(t *testing.T, c *Context, p *Poly) []*big.Int {
	t.Helper()
	tmp := c.ToResidues(p)
	defer c.PutScratch(tmp)
	out := make([]*big.Int, c.N)
	res := make([]uint64, c.K())
	for j := range out {
		for i := range res {
			res[i] = tmp.Coeffs[i][j]
		}
		v, err := c.Basis.RecombineCentered(res)
		if err != nil {
			t.Fatal(err)
		}
		out[j] = v
	}
	return out
}

// mulZRef is the O(n²) negacyclic integer product (the evaluator's
// schoolbook tensor reference).
func mulZRef(a, b []*big.Int) []*big.Int {
	n := len(a)
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int)
	}
	t := new(big.Int)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			t.Mul(a[i], b[j])
			if i+j < n {
				out[i+j].Add(out[i+j], t)
			} else {
				out[i+j-n].Sub(out[i+j-n], t)
			}
		}
	}
	return out
}

// TestNewContextRejectsNonNativeModuli: a modulus the word-sized base
// conversion cannot serve gets an error from NewContext (and GetContext)
// instead of a context without conversion tables.
func TestNewContextRejectsNonNativeModuli(t *testing.T) {
	const n = 64
	p0, err := nt.NTTPrimes(basisPrimeBits, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	one := big.NewInt(1)
	cases := map[string]*big.Int{
		"even":               new(big.Int).Lsh(one, 40),
		"63-bit":             new(big.Int).Sub(new(big.Int).Lsh(one, 63), one),
		"125-bit":            new(big.Int).Add(new(big.Int).Lsh(one, 124), one),
		"shares basis prime": new(big.Int).Mul(big.NewInt(3), new(big.Int).SetUint64(p0[0])),
	}
	for name, q := range cases {
		mod, err := poly.NewModulus(q)
		if err != nil {
			t.Fatal(err)
		}
		if c, err := NewContext(mod, n, 0); err == nil {
			t.Errorf("%s q: NewContext returned a context (RNSNative=%v), want an error", name, c.RNSNative())
		}
		if _, err := GetContext(mod, n, 0); err == nil {
			t.Errorf("%s q: GetContext returned a context, want an error", name)
		}
	}
	// A bound that needs more than maxConvLimbs basis primes is refused
	// too: the conversion's one-word quotient would not hold.
	mod, err := poly.NewModulus(big.NewInt(134217689))
	if err != nil {
		t.Fatal(err)
	}
	wide := (maxConvLimbs + 1) * basisPrimeBits
	if c, err := NewContext(mod, n, wide); err == nil {
		t.Errorf("bound %d: NewContext returned a %d-limb context, want an error", wide, c.K())
	}
	if c, err := NewContext(mod, n, (maxConvLimbs-1)*(basisPrimeBits-1)); err != nil {
		t.Errorf("a %d-limb basis must still build: %v", maxConvLimbs, err)
	} else if c.K() != maxConvLimbs {
		t.Errorf("got a %d-limb basis, want %d", c.K(), maxConvLimbs)
	}
}
