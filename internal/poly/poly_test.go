package poly

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/limb32"
)

// The paper's three coefficient moduli (27-, 54-, 109-bit primes).
func testModuli(t *testing.T) []*Modulus {
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

func TestAddSubNegMatchBig(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, mod := range testModuli(t) {
		n := 32
		a, b := randPoly(rng, n, mod), randPoly(rng, n, mod)
		dst := NewPoly(n, mod.W)

		Add(dst, a, b, mod, nil)
		for i := 0; i < n; i++ {
			want := new(big.Int).Add(a.Coeff(i).Big(), b.Coeff(i).Big())
			want.Mod(want, mod.QBig)
			if dst.Coeff(i).Big().Cmp(want) != 0 {
				t.Fatalf("Add coeff %d mismatch", i)
			}
		}

		Sub(dst, a, b, mod, nil)
		for i := 0; i < n; i++ {
			want := new(big.Int).Sub(a.Coeff(i).Big(), b.Coeff(i).Big())
			want.Mod(want, mod.QBig)
			if dst.Coeff(i).Big().Cmp(want) != 0 {
				t.Fatalf("Sub coeff %d mismatch", i)
			}
		}

		Neg(dst, a, mod, nil)
		sum := NewPoly(n, mod.W)
		Add(sum, dst, a, mod, nil)
		if !sum.Equal(NewPoly(n, mod.W)) {
			t.Fatal("a + (-a) != 0")
		}
	}
}

func TestAddAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	mod := testModuli(t)[2]
	a, b := randPoly(rng, 16, mod), randPoly(rng, 16, mod)
	want := NewPoly(16, mod.W)
	Add(want, a, b, mod, nil)
	aCopy := a.Clone()
	Add(aCopy, aCopy, b, mod, nil) // dst aliases a
	if !aCopy.Equal(want) {
		t.Error("aliased Add differs")
	}
}

// naiveNegacyclic computes the product with big.Int, the independent oracle.
func naiveNegacyclic(a, b *Poly, mod *Modulus) *Poly {
	n := a.N
	acc := make([]*big.Int, n)
	for i := range acc {
		acc[i] = new(big.Int)
	}
	for i := 0; i < n; i++ {
		ab := a.Coeff(i).Big()
		for j := 0; j < n; j++ {
			p := new(big.Int).Mul(ab, b.Coeff(j).Big())
			if i+j < n {
				acc[i+j].Add(acc[i+j], p)
			} else {
				acc[i+j-n].Sub(acc[i+j-n], p)
			}
		}
	}
	return FromBigCoeffs(acc, mod)
}

func TestMulNegacyclicMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, mod := range testModuli(t) {
		for _, n := range []int{4, 16, 64} {
			a, b := randPoly(rng, n, mod), randPoly(rng, n, mod)
			got := NewPoly(n, mod.W)
			MulNegacyclic(got, a, b, mod, nil)
			want := naiveNegacyclic(a, b, mod)
			if !got.Equal(want) {
				t.Fatalf("W=%d n=%d: MulNegacyclic mismatch", mod.W, n)
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
	MulNegacyclic(dst, a, one, mod, nil)
	if !dst.Equal(a) {
		t.Error("a * 1 != a")
	}

	// X^{n-1} * X = -1.
	x := NewPoly(n, mod.W)
	x.Coeff(1)[0] = 1
	xn1 := NewPoly(n, mod.W)
	xn1.Coeff(n - 1)[0] = 1
	MulNegacyclic(dst, x, xn1, mod, nil)
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
		MulNegacyclic(ab, a, b, mod, nil)
		MulNegacyclic(ba, b, a, mod, nil)
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
		Add(bc, b, c, mod, nil)
		lhs := NewPoly(n, mod.W)
		MulNegacyclic(lhs, a, bc, mod, nil)
		ab, ac := NewPoly(n, mod.W), NewPoly(n, mod.W)
		MulNegacyclic(ab, a, b, mod, nil)
		MulNegacyclic(ac, a, c, mod, nil)
		rhs := NewPoly(n, mod.W)
		Add(rhs, ab, ac, mod, nil)
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
	MulScalar(dst, a, limb32.FromBig(s, mod.W), mod, nil)
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
	p := FromInt64Coeffs([]int64{0, 1, -1, 5, -5, 0, 0, 0}, mod)
	got := p.ToCenteredCoeffs(mod)
	want := []int64{0, 1, -1, 5, -5, 0, 0, 0}
	for i := range want {
		if got[i].Int64() != want[i] {
			t.Errorf("centered coeff %d = %v, want %d", i, got[i], want[i])
		}
	}
	if p.InfNormCentered(mod).Int64() != 5 {
		t.Errorf("InfNorm = %v, want 5", p.InfNormCentered(mod))
	}
}

func TestFromBigRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	mod := testModuli(t)[2]
	coeffs := make([]*big.Int, 8)
	for i := range coeffs {
		coeffs[i] = new(big.Int).Rand(rng, mod.QBig)
	}
	p := FromBigCoeffs(coeffs, mod)
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
	Add(a, a, b, mod, nil)
}

func TestMeteredMulChargesKaratsubaCounts(t *testing.T) {
	// For the 109-bit modulus each coefficient product is a 4-limb
	// Karatsuba multiply: 9 OpMul32 per (i,j) pair, n² pairs.
	mod := testModuli(t)[2]
	n := 8
	rng := rand.New(rand.NewSource(87))
	a, b := randPoly(rng, n, mod), randPoly(rng, n, mod)
	var m limb32.Counts
	dst := NewPoly(n, mod.W)
	MulNegacyclic(dst, a, b, mod, &m)
	wantMin := int64(9 * n * n) // products only; Mod charges extra
	if m[limb32.OpMul32] < wantMin {
		t.Errorf("metered mul32 = %d, want >= %d", m[limb32.OpMul32], wantMin)
	}
}

func BenchmarkMulNegacyclicSchoolbook1024(b *testing.B) {
	q, _ := NewModulus(big.NewInt(134217689))
	rng := rand.New(rand.NewSource(93))
	x, y := randPoly(rng, 1024, q), randPoly(rng, 1024, q)
	dst := NewPoly(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulNegacyclic(dst, x, y, q, nil)
	}
}
