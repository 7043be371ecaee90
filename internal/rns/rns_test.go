package rns

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/nt"
)

func testBasis(t *testing.T) *Basis {
	t.Helper()
	primes, err := nt.NTTPrimes(50, 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBasis(primes)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decompose returns the residues of x (taken mod Q, so negative values
// are lifted) in each channel — the big.Int reference input for the
// recombination tests.
func decompose(b *Basis, x *big.Int) []uint64 {
	v := new(big.Int).Mod(x, b.Q)
	out := make([]uint64, b.K())
	for i, p := range b.Primes {
		out[i] = new(big.Int).Mod(v, new(big.Int).SetUint64(p)).Uint64()
	}
	return out
}

func TestDecomposeRecombineRoundTrip(t *testing.T) {
	b := testBasis(t)
	rng := rand.New(rand.NewSource(70))
	for i := 0; i < 200; i++ {
		x := new(big.Int).Rand(rng, b.Q)
		res := decompose(b, x)
		got, err := b.Recombine(res)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(x) != 0 {
			t.Fatalf("round trip: got %v, want %v", got, x)
		}
	}
}

func TestDecomposeNegative(t *testing.T) {
	b := testBasis(t)
	x := big.NewInt(-42)
	res := decompose(b, x)
	got, err := b.RecombineCentered(res)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != -42 {
		t.Fatalf("centered recombine of -42 = %v", got)
	}
}

func TestRecombineCenteredRange(t *testing.T) {
	b := testBasis(t)
	rng := rand.New(rand.NewSource(71))
	half := new(big.Int).Rsh(b.Q, 1)
	negHalf := new(big.Int).Neg(half)
	for i := 0; i < 100; i++ {
		x := new(big.Int).Rand(rng, b.Q)
		got, err := b.RecombineCentered(decompose(b, x))
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(negHalf) < 0 || got.Cmp(half) >= 0 {
			t.Fatalf("centered value %v outside [-Q/2, Q/2)", got)
		}
	}
}

func TestHomomorphicAddMul(t *testing.T) {
	// RNS arithmetic must commute with integer arithmetic mod Q.
	b := testBasis(t)
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 100; i++ {
		x := new(big.Int).Rand(rng, b.Q)
		y := new(big.Int).Rand(rng, b.Q)
		rx, ry := decompose(b, x), decompose(b, y)

		sum := make([]uint64, b.K())
		prod := make([]uint64, b.K())
		for c := range rx {
			sum[c] = b.Rings[c].Add(rx[c], ry[c])
			prod[c] = b.Rings[c].Mul(rx[c], ry[c])
		}
		gotSum, _ := b.Recombine(sum)
		gotProd, _ := b.Recombine(prod)

		wantSum := new(big.Int).Add(x, y)
		wantSum.Mod(wantSum, b.Q)
		wantProd := new(big.Int).Mul(x, y)
		wantProd.Mod(wantProd, b.Q)
		if gotSum.Cmp(wantSum) != 0 {
			t.Fatal("RNS add mismatch")
		}
		if gotProd.Cmp(wantProd) != 0 {
			t.Fatal("RNS mul mismatch")
		}
	}
}

func TestNewBasisErrors(t *testing.T) {
	if _, err := NewBasis(nil); err == nil {
		t.Error("expected error for empty basis")
	}
	if _, err := NewBasis([]uint64{15}); err == nil {
		t.Error("expected error for composite prime")
	}
	if _, err := NewBasis([]uint64{97, 97}); err == nil {
		t.Error("expected error for duplicate primes")
	}
}
