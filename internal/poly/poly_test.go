package poly

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/limb32"
)

// The paper's three coefficient moduli (27-, 54-, 109-bit primes).
func testModuli(t testing.TB) []*Modulus {
	t.Helper()
	var mods []*Modulus
	for _, s := range []string{
		"134217689",
		"18014398509481951",
		"649037107316853453566312041152481",
	} {
		q, ok := new(big.Int).SetString(s, 10)
		if !ok {
			t.Fatal("bad modulus literal")
		}
		m, err := NewModulus(q)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	return mods
}

func randPoly(rng *rand.Rand, n int, mod *Modulus) *Poly {
	p := NewPoly(n, mod.W)
	for i := 0; i < n; i++ {
		c := new(big.Int).Rand(rng, mod.QBig)
		p.Coeff(i).Set(limb32.FromBig(c, mod.W))
	}
	return p
}

func TestNewModulusWidths(t *testing.T) {
	mods := testModuli(t)
	for i, want := range []int{1, 2, 4} {
		if mods[i].W != want {
			t.Errorf("modulus %d: W = %d, want %d", i, mods[i].W, want)
		}
	}
	for i, want := range []int{27, 54, 109} {
		if mods[i].Bits() != want {
			t.Errorf("modulus %d: bits = %d, want %d", i, mods[i].Bits(), want)
		}
	}
	if _, err := NewModulus(big.NewInt(1)); err == nil {
		t.Error("modulus 1 should be rejected")
	}
	if _, err := NewModulus(big.NewInt(-5)); err == nil {
		t.Error("negative modulus should be rejected")
	}
	// A 200-bit modulus should get a generic width.
	big200 := new(big.Int).Lsh(big.NewInt(1), 199)
	big200.Add(big200, big.NewInt(1))
	m, err := NewModulus(big200)
	if err != nil {
		t.Fatal(err)
	}
	if m.W != 7 {
		t.Errorf("200-bit modulus W = %d, want 7", m.W)
	}
}

// adversarialPair fills a and b with every ordered pair of the values the
// word-level add's carries and reduction masks turn on — 0, 1, q−1, q−2,
// pairs summing to exactly q−1, q and 2q−2, and 2^(32k)−1 and 2^(32k)
// below q, whose limb (and, at W = 4, word) carries into the next — and
// pads the rest of the n coefficients with random residues.
func adversarialPair(rng *rand.Rand, n int, mod *Modulus) (a, b *Poly) {
	q := mod.QBig
	one := big.NewInt(1)
	h := new(big.Int).Rsh(q, 1)
	vals := []*big.Int{
		new(big.Int), one, big.NewInt(2),
		new(big.Int).Sub(q, one), new(big.Int).Sub(q, big.NewInt(2)),
		h, new(big.Int).Sub(q, h), new(big.Int).Sub(new(big.Int).Sub(q, one), h),
	}
	for k := uint(32); k < uint(q.BitLen()); k += 32 {
		p := new(big.Int).Lsh(one, k)
		vals = append(vals, new(big.Int).Sub(p, one), p)
	}
	a, b = randPoly(rng, n, mod), randPoly(rng, n, mod)
	i := 0
	for _, x := range vals {
		for _, y := range vals {
			a.Coeff(i).SetBig(x)
			b.Coeff(i).SetBig(y)
			i++
		}
	}
	return a, b
}

// TestAddSubNegMatchBig pins Add/Sub/Neg to
// limb32.AddMod/SubMod/NegMod and to big.Int, on adversarial operands
// and random residues, at the preset widths (Add at W = 4 is addW4) and
// at W = 8. Beside the presets, a q just below 2¹²⁸ makes addW4's sum
// carry out of the top word, which the 109-bit preset never does.
func TestAddSubNegMatchBig(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	mods := testModuli(t)
	for _, top := range []struct{ bits, minus int64 }{{128, 159}, {255, 19}} {
		q := new(big.Int).Lsh(big.NewInt(1), uint(top.bits))
		mod, err := NewModulus(q.Sub(q, big.NewInt(top.minus)))
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, mod)
	}
	for _, mod := range mods {
		n := 512
		a, b := adversarialPair(rng, n, mod)
		dst := NewPoly(n, mod.W)
		ref := limb32.NewNat(mod.W)
		check := func(op string, i int, want *big.Int) {
			t.Helper()
			want.Mod(want, mod.QBig)
			if got := dst.Coeff(i); got.Big().Cmp(want) != 0 || got.Big().Cmp(ref.Big()) != 0 {
				t.Fatalf("W=%d %s(%v, %v) = %v, limb32 %v, want %v",
					mod.W, op, a.Coeff(i), b.Coeff(i), got, ref, want)
			}
		}

		Add(dst, a, b, mod)
		for i := 0; i < n; i++ {
			limb32.AddMod(ref, a.Coeff(i), b.Coeff(i), mod.Q, nil)
			check("Add", i, new(big.Int).Add(a.Coeff(i).Big(), b.Coeff(i).Big()))
		}

		Sub(dst, a, b, mod)
		for i := 0; i < n; i++ {
			limb32.SubMod(ref, a.Coeff(i), b.Coeff(i), mod.Q, nil)
			check("Sub", i, new(big.Int).Sub(a.Coeff(i).Big(), b.Coeff(i).Big()))
		}

		Neg(dst, a, mod)
		for i := 0; i < n; i++ {
			limb32.NegMod(ref, a.Coeff(i), mod.Q, nil)
			check("Neg", i, new(big.Int).Neg(a.Coeff(i).Big()))
		}
		sum := NewPoly(n, mod.W)
		Add(sum, dst, a, mod)
		if !sum.Equal(NewPoly(n, mod.W)) {
			t.Fatal("a + (-a) != 0")
		}
	}
}

// TestSumRange checks the lazily reduced sum against the limb32 Add fold
// on adversarial and random operands at the preset moduli and a 124-bit
// one, summed in whole blocks and in pieces that straddle them, and — at
// the 124-bit modulus, the widest the double-CRT backend accepts — with
// all-(q−1) operands numbering 3·sumCapacity+1, so the accumulators fill
// and must reduce three times on the way.
func TestSumRange(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	q124 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 124), big.NewInt(1))
	m124, err := NewModulus(q124)
	if err != nil {
		t.Fatal(err)
	}
	mods := append(testModuli(t), m124)
	for i, want := range []int{math.MaxInt, math.MaxInt, 1 << 19, 16} {
		if got := mods[i].sumCap; got != want {
			t.Errorf("sumCapacity(%d-bit q) = %d, want %d", mods[i].Bits(), got, want)
		}
	}

	n := 1024
	for _, mod := range mods {
		a, b := adversarialPair(rng, n, mod)
		ps := []*Poly{a, b, randPoly(rng, n, mod), a, b}
		want := ps[0].Clone()
		for _, p := range ps[1:] {
			for i := 0; i < n; i++ {
				limb32.AddMod(want.Coeff(i), want.Coeff(i), p.Coeff(i), mod.Q, nil)
			}
		}
		for _, step := range []int{SumBlock, 300} {
			got := NewPoly(n, mod.W)
			for lo := 0; lo < n; lo += step {
				SumRange(got, ps, lo, min(lo+step, n), mod)
			}
			if !got.Equal(want) {
				t.Fatalf("W=%d: SumRange in %d-coefficient pieces differs from the limb32 fold", mod.W, step)
			}
		}
	}

	k := 3*m124.sumCap + 1
	top := NewPoly(8, m124.W)
	qm1 := new(big.Int).Sub(q124, big.NewInt(1))
	for i := 0; i < top.N; i++ {
		top.Coeff(i).SetBig(qm1)
	}
	ps := make([]*Poly, k)
	for i := range ps {
		ps[i] = top
	}
	got := NewPoly(8, m124.W)
	SumRange(got, ps, 0, 8, m124)
	want := new(big.Int).Mul(qm1, big.NewInt(int64(k)))
	want.Mod(want, q124)
	for i := 0; i < got.N; i++ {
		if got.Coeff(i).Big().Cmp(want) != 0 {
			t.Fatalf("sum of %d × (q−1) at coefficient %d = %v, want %v", k, i, got.Coeff(i), want)
		}
	}
}

func TestAddAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	mod := testModuli(t)[2]
	a, b := randPoly(rng, 16, mod), randPoly(rng, 16, mod)
	want := NewPoly(16, mod.W)
	Add(want, a, b, mod)
	aCopy := a.Clone()
	Add(aCopy, aCopy, b, mod) // dst aliases a
	if !aCopy.Equal(want) {
		t.Error("aliased Add differs")
	}
}

// naiveNegacyclicZ is the pairwise big.Int product over Z, the
// independent oracle of both Kronecker products.
func naiveNegacyclicZ(a, b []*big.Int) []*big.Int {
	n := len(a)
	acc := make([]*big.Int, n)
	for i := range acc {
		acc[i] = new(big.Int)
	}
	p := new(big.Int)
	for i := 0; i < n; i++ {
		if a[i].Sign() == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			p.Mul(a[i], b[j])
			if i+j < n {
				acc[i+j].Add(acc[i+j], p)
			} else {
				acc[i+j-n].Sub(acc[i+j-n], p)
			}
		}
	}
	return acc
}

// naiveNegacyclic reduces naiveNegacyclicZ's sum mod q.
func naiveNegacyclic(a, b *Poly, mod *Modulus) *Poly {
	return fromBigCoeffs(naiveNegacyclicZ(a.ToBigCoeffs(), b.ToBigCoeffs()), mod)
}

// TestMulNegacyclicMatchesNaive holds MulNegacyclic to the pairwise loop
// at every testModuli width on zero, all-(q−1), monomial and random
// operands, and MulNegacyclicZ to its unreduced sum on centred operands
// of either sign. The monomials at n−1 multiply into the top slot, 2n−2.
// The 27-bit modulus also runs at n = 1024, which fills its slot
// exactly: the all-(q−1) product has a coefficient n·(q−1)² ≥ 2⁶³, so it
// needs the 2·27 + 10 + 1 = 65 bits of a two-word slot.
func TestMulNegacyclicMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, mod := range testModuli(t) {
		qm1 := new(big.Int).Sub(mod.QBig, big.NewInt(1))
		half := mod.Half
		negHalf := new(big.Int).Neg(half)
		ns := []int{4, 16, 64}
		if mod.Bits() == 27 {
			ns = append(ns, 1024)
		}
		for _, n := range ns {
			fill := func(v func(i int) *big.Int) []*big.Int {
				c := make([]*big.Int, n)
				for i := range c {
					c[i] = v(i)
				}
				return c
			}
			zero := func(int) *big.Int { return new(big.Int) }
			monomial := func(at int) func(int) *big.Int {
				v := new(big.Int).Add(new(big.Int).Rand(rng, qm1), big.NewInt(1))
				return func(i int) *big.Int {
					if i == at {
						return v
					}
					return new(big.Int)
				}
			}
			random := func(int) *big.Int { return new(big.Int).Rand(rng, mod.QBig) }
			for _, row := range []struct {
				name string
				a, b []*big.Int
			}{
				{"zero", fill(zero), fill(zero)},
				{"q-1", fill(func(int) *big.Int { return qm1 }), fill(func(int) *big.Int { return qm1 })},
				{"x^0", fill(monomial(0)), fill(monomial(0))},
				{"x^(n-1)", fill(monomial(n - 1)), fill(monomial(n - 1))},
				{"random", fill(random), fill(random)},
			} {
				a, b := fromBigCoeffs(row.a, mod), fromBigCoeffs(row.b, mod)
				got := NewPoly(n, mod.W)
				MulNegacyclic(got, a, b, mod)
				if !got.Equal(naiveNegacyclic(a, b, mod)) {
					t.Fatalf("W=%d n=%d %s: MulNegacyclic mismatch", mod.W, n, row.name)
				}
			}

			plusHalf := fill(func(int) *big.Int { return half })
			minusHalf := fill(func(int) *big.Int { return negHalf })
			centred := func() []*big.Int { return randPoly(rng, n, mod).ToCenteredCoeffs(mod) }
			for _, row := range []struct {
				name string
				a, b []*big.Int
			}{
				{"+q/2·+q/2", plusHalf, plusHalf},
				{"-q/2·-q/2", minusHalf, minusHalf},
				{"+q/2·-q/2", plusHalf, minusHalf},
				{"centred", centred(), centred()},
			} {
				got, want := MulNegacyclicZ(row.a, row.b), naiveNegacyclicZ(row.a, row.b)
				for k := range want {
					if got[k].Cmp(want[k]) != 0 {
						t.Fatalf("W=%d n=%d %s: MulNegacyclicZ coefficient %d = %v, want %v",
							mod.W, n, row.name, k, got[k], want[k])
					}
				}
			}
		}
	}
}

func TestMulNegacyclicIdentityAndWraparound(t *testing.T) {
	mod := testModuli(t)[2]
	n := 16
	rng := rand.New(rand.NewSource(83))
	a := randPoly(rng, n, mod)

	one := NewPoly(n, mod.W)
	one.Coeff(0)[0] = 1
	dst := NewPoly(n, mod.W)
	MulNegacyclic(dst, a, one, mod)
	if !dst.Equal(a) {
		t.Error("a * 1 != a")
	}

	// X^{n-1} * X = -1.
	x := NewPoly(n, mod.W)
	x.Coeff(1)[0] = 1
	xn1 := NewPoly(n, mod.W)
	xn1.Coeff(n - 1)[0] = 1
	MulNegacyclic(dst, x, xn1, mod)
	wantC := new(big.Int).Sub(mod.QBig, big.NewInt(1))
	if dst.Coeff(0).Big().Cmp(wantC) != 0 {
		t.Errorf("X^{n-1}·X coeff 0 = %v, want q-1", dst.Coeff(0))
	}
	for i := 1; i < n; i++ {
		if !dst.Coeff(i).IsZero() {
			t.Errorf("X^{n-1}·X coeff %d non-zero", i)
		}
	}
}

func TestMulCommutesProperty(t *testing.T) {
	mod := testModuli(t)[0]
	n := 8
	f := func(av, bv [8]uint32) bool {
		a, b := NewPoly(n, 1), NewPoly(n, 1)
		for i := 0; i < n; i++ {
			a.C[i] = av[i] % uint32(mod.QBig.Uint64())
			b.C[i] = bv[i] % uint32(mod.QBig.Uint64())
		}
		ab, ba := NewPoly(n, 1), NewPoly(n, 1)
		MulNegacyclic(ab, a, b, mod)
		MulNegacyclic(ba, b, a, mod)
		return ab.Equal(ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMulDistributesProperty(t *testing.T) {
	mod := testModuli(t)[1]
	rng := rand.New(rand.NewSource(84))
	n := 8
	for i := 0; i < 50; i++ {
		a, b, c := randPoly(rng, n, mod), randPoly(rng, n, mod), randPoly(rng, n, mod)
		bc := NewPoly(n, mod.W)
		Add(bc, b, c, mod)
		lhs := NewPoly(n, mod.W)
		MulNegacyclic(lhs, a, bc, mod)
		ab, ac := NewPoly(n, mod.W), NewPoly(n, mod.W)
		MulNegacyclic(ab, a, b, mod)
		MulNegacyclic(ac, a, c, mod)
		rhs := NewPoly(n, mod.W)
		Add(rhs, ab, ac, mod)
		if !lhs.Equal(rhs) {
			t.Fatal("a(b+c) != ab+ac")
		}
	}
}

func TestMulScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	mod := testModuli(t)[2]
	n := 16
	a := randPoly(rng, n, mod)
	s := new(big.Int).Rand(rng, mod.QBig)
	dst := NewPoly(n, mod.W)
	MulScalar(dst, a, limb32.FromBig(s, mod.W), mod)
	for i := 0; i < n; i++ {
		want := new(big.Int).Mul(a.Coeff(i).Big(), s)
		want.Mod(want, mod.QBig)
		if dst.Coeff(i).Big().Cmp(want) != 0 {
			t.Fatalf("MulScalar coeff %d mismatch", i)
		}
	}
}

func TestCenteredCoeffs(t *testing.T) {
	mod := testModuli(t)[0]
	want := []int64{0, 1, -1, 5, -5, 0, 0, 0}
	coeffs := make([]*big.Int, len(want))
	for i, v := range want {
		coeffs[i] = big.NewInt(v)
	}
	p := fromBigCoeffs(coeffs, mod)
	got := p.ToCenteredCoeffs(mod)
	for i := range want {
		if got[i].Int64() != want[i] {
			t.Errorf("centered coeff %d = %v, want %d", i, got[i], want[i])
		}
	}
	if p.InfNormCentered(mod).Int64() != 5 {
		t.Errorf("InfNorm = %v, want 5", p.InfNormCentered(mod))
	}
}

// TestSetWords: a coefficient set from two words holds the value the
// big.Int route gives it, at every width SetWords serves; wider
// coefficients are refused.
func TestSetWords(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for _, mod := range testModuli(t) {
		q0, q1 := mod.Words()
		p := NewPoly(8, mod.W)
		for i := 0; i < p.N; i++ {
			lo, hi := rng.Uint64()%(q0+1), uint64(0)
			if q1 != 0 {
				lo, hi = rng.Uint64(), rng.Uint64()%q1
			}
			p.SetWords(i, lo, hi)
			want := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
			want.Or(want, new(big.Int).SetUint64(lo))
			if got := p.Coeff(i).Big(); got.Cmp(want) != 0 {
				t.Fatalf("W=%d: coefficient %d holds %v, want %v", mod.W, i, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SetWords accepted an 8-limb coefficient")
		}
	}()
	NewPoly(2, 8).SetWords(0, 1, 0)
}

func TestFromBigRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	mod := testModuli(t)[2]
	coeffs := make([]*big.Int, 8)
	for i := range coeffs {
		coeffs[i] = new(big.Int).Rand(rng, mod.QBig)
	}
	p := fromBigCoeffs(coeffs, mod)
	back := p.ToBigCoeffs()
	for i := range coeffs {
		if back[i].Cmp(coeffs[i]) != 0 {
			t.Fatalf("big round trip at %d", i)
		}
	}
}

func TestNewPolyPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two n")
		}
	}()
	NewPoly(12, 1)
}

func TestShapeMismatchPanics(t *testing.T) {
	mod := testModuli(t)[0]
	a := NewPoly(8, 1)
	b := NewPoly(16, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	Add(a, a, b, mod)
}

// BenchmarkMulNegacyclic109 times the oracle's key-switch product: a
// 109-bit q at n = 4096.
func BenchmarkMulNegacyclic109(b *testing.B) {
	q := testModuli(b)[2]
	rng := rand.New(rand.NewSource(93))
	x, y := randPoly(rng, 4096, q), randPoly(rng, 4096, q)
	dst := NewPoly(4096, q.W)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulNegacyclic(dst, x, y, q)
	}
}

// fromBigCoeffs builds a polynomial from arbitrary big-integer
// coefficients, reducing each mod q.
func fromBigCoeffs(coeffs []*big.Int, mod *Modulus) *Poly {
	p := NewPoly(len(coeffs), mod.W)
	for i, c := range coeffs {
		p.Coeff(i).SetBig(new(big.Int).Mod(c, mod.QBig))
	}
	return p
}
