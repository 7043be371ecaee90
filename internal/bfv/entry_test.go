package bfv

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/poly"
	"repro/internal/sampling"
)

// Oracles for the word-level entry of small values into R_q — signed
// samples, Δ·m (+ e), the MulPlain lift and a whole encryption — against
// the big.Int construction they replaced, which lives only here.

// paramsWide has a plaintext modulus above 2³², so m needs more than 32
// bits, and q = 2¹⁰⁰ + 13, whose low word is below the sampler's bound, so
// q − |v| borrows from the high word.
func paramsWide(tb testing.TB) *Parameters {
	tb.Helper()
	q := new(big.Int).Lsh(big.NewInt(1), 100)
	q.Add(q, big.NewInt(13))
	par, err := NewParameters(64, q, 1<<40+15, 20)
	if err != nil {
		tb.Fatal(err)
	}
	return par
}

// entryParams are the parameter sets the oracles run at: the toy set, the
// paper's three, the served one and paramsWide.
func entryParams(tb testing.TB) []struct {
	name string
	par  *Parameters
} {
	return []struct {
		name string
		par  *Parameters
	}{
		{"toy", ParamsToy()},
		{"sec27", ParamsSec27()},
		{"sec54", ParamsSec54()},
		{"sec109", ParamsSec109()},
		{"batching", ParamsBatching()},
		{"wide", paramsWide(tb)},
	}
}

// bigPoly builds a polynomial from big-integer coefficients, reducing
// each mod q.
func bigPoly(coeffs []*big.Int, mod *poly.Modulus) *poly.Poly {
	p := poly.NewPoly(len(coeffs), mod.W)
	for i, c := range coeffs {
		p.Coeff(i).SetBig(new(big.Int).Mod(c, mod.QBig))
	}
	return p
}

// bigSigned is the big.Int entry of small signed samples.
func bigSigned(vals []int8, mod *poly.Modulus) *poly.Poly {
	b := make([]*big.Int, len(vals))
	for i, v := range vals {
		b[i] = big.NewInt(int64(v))
	}
	return bigPoly(b, mod)
}

// bigScaled is the big.Int d·(m mod t) + e in R_q (e nil for none).
func bigScaled(par *Parameters, pt *Plaintext, d *big.Int, e []int8) *poly.Poly {
	b := make([]*big.Int, par.N)
	for i, m := range pt.Coeffs {
		b[i] = new(big.Int).SetUint64(m % par.T)
		b[i].Mul(b[i], d)
		if e != nil {
			b[i].Add(b[i], big.NewInt(int64(e[i])))
		}
	}
	return bigPoly(b, par.Q)
}

// signedSweep cycles through every value in [−bound, bound] for the
// Gaussian tail bound (⌈6σ⌉ = 20), which covers the ternary {−1, 0, 1}.
func signedSweep(n int) []int8 {
	bound := sampling.GaussianBound()
	v := make([]int8, n)
	for i := range v {
		v[i] = int8(i%(2*bound+1) - bound)
	}
	return v
}

// plaintextCases are m = 0, 1 and t − 1 in every slot, a random vector,
// and out-of-range coefficients (m ≥ t), which enter as m mod t.
func plaintextCases(par *Parameters, seed int64) map[string]*Plaintext {
	rng := rand.New(rand.NewSource(seed))
	cases := map[string]*Plaintext{}
	for _, m := range []uint64{0, 1, par.T - 1} {
		pt := NewPlaintext(par)
		for i := range pt.Coeffs {
			pt.Coeffs[i] = m
		}
		cases[fmt.Sprintf("m=%d", m)] = pt
	}
	rnd, wide := NewPlaintext(par), NewPlaintext(par)
	for i := range rnd.Coeffs {
		rnd.Coeffs[i] = rng.Uint64() % par.T
		wide.Coeffs[i] = rng.Uint64()
	}
	cases["random"], cases["unreduced"] = rnd, wide
	return cases
}

func TestSignedEntryMatchesBig(t *testing.T) {
	for _, tc := range entryParams(t) {
		vals := signedSweep(tc.par.N)
		if got, want := signedPoly(vals, tc.par.Q), bigSigned(vals, tc.par.Q); !got.Equal(want) {
			t.Errorf("%s: signedPoly differs from the big.Int entry", tc.name)
		}
	}
}

func TestDeltaEncodeMatchesBig(t *testing.T) {
	for _, tc := range entryParams(t) {
		par := tc.par
		top := new(big.Int).Mul(par.Delta, new(big.Int).SetUint64(par.T-1))
		if top.Cmp(par.Q.QBig) >= 0 {
			t.Fatalf("%s: Δ·(t−1) = %v is not below q = %v", tc.name, top, par.Q.QBig)
		}
		errs := signedSweep(par.N)
		for name, pt := range plaintextCases(par, 31) {
			if !DeltaEncode(par, pt).Equal(bigScaled(par, pt, par.Delta, nil)) {
				t.Errorf("%s %s: Δ·m differs from the big.Int product", tc.name, name)
			}
			if !deltaPoly(par, pt, errs).Equal(bigScaled(par, pt, par.Delta, errs)) {
				t.Errorf("%s %s: Δ·m + e differs from the big.Int sum", tc.name, name)
			}
		}
	}
}

func TestMulPlainLiftMatchesBig(t *testing.T) {
	one := big.NewInt(1)
	for _, tc := range entryParams(t) {
		for name, pt := range plaintextCases(tc.par, 37) {
			if !scaledPoly(tc.par, pt, 1, 0, nil).Equal(bigScaled(tc.par, pt, one, nil)) {
				t.Errorf("%s %s: the plaintext lift differs from the big.Int lift", tc.name, name)
			}
		}
	}
}

// encryptBig is Encrypt as it was built through math/big: every sample
// enters R_q as a big.Int, u enters double-CRT form from its canonical
// lift, and e1 and Δ·m are added to c0 one after the other.
func encryptBig(par *Parameters, pk *PublicKey, src *sampling.Source, pt *Plaintext) *Ciphertext {
	n := par.N
	u, e1, e2 := make([]int8, n), make([]int8, n), make([]int8, n)
	src.Ternary(u)
	src.Gaussian(e1)
	src.Gaussian(e2)
	ctx := par.dcrtCtx
	uR := ctx.ToRNS(bigSigned(u, par.Q))
	prod := ctx.NewPoly()
	ctx.MulNTT(prod, ctx.ToRNS(pk.P0), uR)
	c0 := ctx.FromRNS(prod)
	poly.Add(c0, c0, bigSigned(e1, par.Q), par.Q)
	poly.Add(c0, c0, bigScaled(par, pt, par.Delta, nil), par.Q)
	ctx.MulNTT(prod, ctx.ToRNS(pk.P1), uR)
	c1 := ctx.FromRNS(prod)
	poly.Add(c1, c1, bigSigned(e2, par.Q), par.Q)
	return &Ciphertext{Polys: []*poly.Poly{c0, c1}}
}

// TestEncryptMatchesBig: from one seed, Encrypt and the big.Int
// construction draw the same samples and produce the same bits, and the
// ciphertext decrypts.
func TestEncryptMatchesBig(t *testing.T) {
	for _, tc := range entryParams(t) {
		par := tc.par
		kg := NewKeyGenerator(par, samplingSource(41))
		sk, pk := kg.GenKeyPair()
		dec := NewDecryptor(par, sk)
		for name, pt := range plaintextCases(par, 43) {
			got, err := NewEncryptor(par, pk, samplingSource(47)).Encrypt(pt)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(encryptBig(par, pk, samplingSource(47), pt)) {
				t.Errorf("%s %s: Encrypt differs from the big.Int construction", tc.name, name)
			}
			back := dec.Decrypt(got)
			for i, m := range pt.Coeffs {
				if back.Coeffs[i] != m%par.T {
					t.Fatalf("%s %s: coefficient %d decrypts to %d, want %d", tc.name, name, i, back.Coeffs[i], m%par.T)
				}
			}
		}
	}
}

// TestEncryptAllocs pins the allocations of a warm encryption at the
// served parameters: the sample buffer, the entry of u, the two exits,
// the two small-term polynomials and the ciphertext — 21–22 when written.
// Building the small terms through math/big cost 42 714.
func TestEncryptAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const maxAllocs = 50
	_, _, _, enc := encryptRig(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := enc.EncryptValue(7); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Encrypt: %.0f allocations per run", allocs)
	if allocs > maxAllocs {
		t.Fatalf("warm Encrypt allocates %.0f times per run, want ≤ %d", allocs, maxAllocs)
	}
}

// TestDecomposeForRelinMatchesBig holds the limb-field digits of
// DecomposeForRelin to the big.Int shifts and masks they replaced, at
// 0, 1, ⌊q/2⌋, q − 1 and random coefficients of every parameter set:
// each digit is its base-2^RelinBaseBits field, and the digits
// recombine to the coefficient.
func TestDecomposeForRelinMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(5102))
	for _, c := range entryParams(t) {
		par := c.par
		q := par.Q.QBig
		vals := make([]*big.Int, par.N)
		for i := range vals {
			switch i {
			case 0, 1:
				vals[i] = big.NewInt(int64(i))
			case 2:
				vals[i] = new(big.Int).Set(par.Q.Half)
			case 3:
				vals[i] = new(big.Int).Sub(q, big.NewInt(1))
			default:
				vals[i] = new(big.Int).Rand(rng, q)
			}
		}
		digits := DecomposeForRelin(bigPoly(vals, par.Q), par)
		if len(digits) != par.RelinDigits() {
			t.Fatalf("%s: %d digits, want %d", c.name, len(digits), par.RelinDigits())
		}
		base := par.RelinBaseBits
		mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), base), big.NewInt(1))
		coeffs := make([][]*big.Int, len(digits))
		for d, dp := range digits {
			coeffs[d] = dp.ToBigCoeffs()
		}
		for i, v := range vals {
			sum := new(big.Int)
			for d := range digits {
				want := new(big.Int).Rsh(v, uint(d)*base)
				want.And(want, mask)
				got := coeffs[d][i]
				if got.Cmp(want) != 0 {
					t.Fatalf("%s: digit %d of %v is %v, want %v", c.name, d, v, got, want)
				}
				sum.Add(sum, new(big.Int).Lsh(got, uint(d)*base))
			}
			if sum.Cmp(v) != 0 {
				t.Fatalf("%s: digits of %v recombine to %v", c.name, v, sum)
			}
		}
	}
}
