package nt

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPrimeSmall(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 97, 101, 65537}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false", p)
		}
	}
	composites := []uint64{0, 1, 4, 6, 9, 15, 21, 25, 91, 561, 41041, 825265}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true", c)
		}
	}
}

func TestIsPrimeKnownLarge(t *testing.T) {
	// Values near powers of two with known primality.
	cases := map[uint64]bool{
		1<<61 - 1:            true,  // Mersenne prime
		1<<62 - 57:           true,  // known prime
		1<<62 - 1:            false, // 3 * ...
		18014398509481951:    true,  // 2^54 - 33, the paper-style 54-bit q
		134217689:            true,  // 2^27 - 39
		18446744073709551557: true,  // largest 64-bit prime
		18446744073709551615: false, // 2^64-1
	}
	for n, want := range cases {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestIsPrimeMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 300; i++ {
		n := rng.Uint64() >> uint(rng.Intn(40))
		want := new(big.Int).SetUint64(n).ProbablyPrime(40)
		if got := IsPrime(n); got != want {
			t.Fatalf("IsPrime(%d) = %v, big says %v", n, got, want)
		}
	}
}

func TestMulModMatchesBig(t *testing.T) {
	f := func(a, b, m uint64) bool {
		if m == 0 {
			return true
		}
		got := MulMod(a%m, b%m, m)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a%m), new(big.Int).SetUint64(b%m))
		want.Mod(want, new(big.Int).SetUint64(m))
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPowModMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		a, e, m := rng.Uint64(), rng.Uint64()%1000, rng.Uint64()|1
		got := PowMod(a, e, m)
		want := new(big.Int).Exp(
			new(big.Int).SetUint64(a),
			new(big.Int).SetUint64(e),
			new(big.Int).SetUint64(m))
		if got != want.Uint64() {
			t.Fatalf("PowMod(%d,%d,%d) = %d, want %v", a, e, m, got, want)
		}
	}
}

func TestPrimitiveRoot(t *testing.T) {
	for _, p := range []uint64{3, 5, 7, 11, 13, 17, 65537, 134217689} {
		g := PrimitiveRoot(p)
		// g^((p-1)/f) != 1 for every prime factor f of p-1, and g^(p-1) == 1.
		if PowMod(g, p-1, p) != 1 {
			t.Errorf("g^(p-1) != 1 for p=%d", p)
		}
		for _, f := range factorize(p - 1) {
			if PowMod(g, (p-1)/f, p) == 1 {
				t.Errorf("g=%d has non-maximal order mod %d (factor %d)", g, p, f)
			}
		}
	}
}

func TestFactorize(t *testing.T) {
	known := map[uint64][]uint64{
		12:           {2, 3},
		97:           {97},
		1 << 20:      {2},
		600851475143: {71, 839, 1471, 6857},
	}
	for n, want := range known {
		got := factorize(n)
		if len(got) != len(want) {
			t.Errorf("factorize(%d) = %v, want %v", n, got, want)
		}
	}
	// Property check on larger values: every reported factor is a distinct
	// prime divisor, and dividing them (with multiplicity) out of n leaves 1.
	rng := rand.New(rand.NewSource(44))
	values := []uint64{134217688, 18014398509481950}
	for i := 0; i < 30; i++ {
		values = append(values, rng.Uint64()>>uint(rng.Intn(24))+2)
	}
	for _, n := range values {
		got := factorize(n)
		seen := map[uint64]bool{}
		rest := n
		for _, f := range got {
			if seen[f] {
				t.Errorf("factorize(%d): duplicate factor %d", n, f)
			}
			seen[f] = true
			if n%f != 0 || !IsPrime(f) {
				t.Errorf("factorize(%d): %d is not a prime factor", n, f)
			}
			for rest%f == 0 {
				rest /= f
			}
		}
		if rest != 1 {
			t.Errorf("factorize(%d) = %v does not cover all factors (left %d)", n, got, rest)
		}
	}
}

func TestNTTPrime(t *testing.T) {
	for _, n := range []int{1024, 2048, 4096} {
		for _, b := range []uint{30, 50, 60} {
			p, err := NTTPrime(b, n)
			if err != nil {
				t.Fatal(err)
			}
			if !IsPrime(p) {
				t.Errorf("NTTPrime(%d,%d) = %d not prime", b, n, p)
			}
			if (p-1)%uint64(2*n) != 0 {
				t.Errorf("NTTPrime(%d,%d) = %d not ≡ 1 mod 2n", b, n, p)
			}
			if p >= 1<<b {
				t.Errorf("NTTPrime(%d,%d) = %d too large", b, n, p)
			}
		}
	}
	if _, err := NTTPrime(63, 1024); err == nil {
		t.Error("expected error for >62-bit request")
	}
}

func TestNTTPrimesDistinct(t *testing.T) {
	ps, err := NTTPrimes(50, 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 || ps[0] == ps[1] || ps[1] == ps[2] || ps[0] == ps[2] {
		t.Errorf("NTTPrimes not distinct: %v", ps)
	}
}

func TestRootOfUnity(t *testing.T) {
	for _, n := range []int{8, 1024, 4096} {
		p, err := NTTPrime(50, n)
		if err != nil {
			t.Fatal(err)
		}
		psi, err := RootOfUnity(p, n)
		if err != nil {
			t.Fatal(err)
		}
		if PowMod(psi, uint64(n), p) != p-1 {
			t.Errorf("psi^n != -1 mod p for n=%d", n)
		}
		if PowMod(psi, uint64(2*n), p) != 1 {
			t.Errorf("psi^2n != 1 mod p for n=%d", n)
		}
	}
	if _, err := RootOfUnity(13, 1024); err == nil {
		t.Error("expected error when p-1 not divisible by 2n")
	}
}
