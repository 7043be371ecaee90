package limb32

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulSchoolbookMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for wa := 1; wa <= 5; wa++ {
		for wb := 1; wb <= 5; wb++ {
			for i := 0; i < 50; i++ {
				a, b := randNat(rng, wa), randNat(rng, wb)
				dst := NewNat(wa + wb)
				MulSchoolbook(dst, a, b, nil)
				want := new(big.Int).Mul(a.Big(), b.Big())
				if dst.Big().Cmp(want) != 0 {
					t.Fatalf("schoolbook %v*%v = %v, want %#x", a, b, dst, want)
				}
			}
		}
	}
}

func TestKaratsuba2MatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Edge cases that stress the 33-bit sums and carries.
	edge := []Nat{
		{0, 0}, {1, 0}, {0, 1},
		{0xffffffff, 0xffffffff},
		{0xffffffff, 0}, {0, 0xffffffff},
		{0x80000000, 0x80000000},
	}
	for _, a := range edge {
		for _, b := range edge {
			dst := NewNat(4)
			karatsuba2(dst, a, b, nil)
			want := new(big.Int).Mul(a.Big(), b.Big())
			if dst.Big().Cmp(want) != 0 {
				t.Fatalf("karatsuba2(%v, %v) = %v, want %#x", a, b, dst, want)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := randNat(rng, 2), randNat(rng, 2)
		dst := NewNat(4)
		karatsuba2(dst, a, b, nil)
		want := new(big.Int).Mul(a.Big(), b.Big())
		if dst.Big().Cmp(want) != 0 {
			t.Fatalf("karatsuba2(%v, %v) = %v, want %#x", a, b, dst, want)
		}
	}
}

func TestKaratsuba4MatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	edge := []Nat{
		{0, 0, 0, 0},
		{1, 0, 0, 0},
		{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
		{0, 0, 0, 0xffffffff},
		{0xffffffff, 0, 0, 0xffffffff},
	}
	for _, a := range edge {
		for _, b := range edge {
			dst := NewNat(8)
			karatsuba4(dst, a, b, nil)
			want := new(big.Int).Mul(a.Big(), b.Big())
			if dst.Big().Cmp(want) != 0 {
				t.Fatalf("karatsuba4(%v, %v) = %v, want %#x", a, b, dst, want)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := randNat(rng, 4), randNat(rng, 4)
		dst := NewNat(8)
		karatsuba4(dst, a, b, nil)
		want := new(big.Int).Mul(a.Big(), b.Big())
		if dst.Big().Cmp(want) != 0 {
			t.Fatalf("karatsuba4(%v, %v) mismatch", a, b)
		}
	}
}

func TestMulDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, w := range []int{1, 2, 3, 4, 6} {
		for i := 0; i < 100; i++ {
			a, b := randNat(rng, w), randNat(rng, w)
			dst := NewNat(2 * w)
			Mul(dst, a, b, nil)
			want := new(big.Int).Mul(a.Big(), b.Big())
			if dst.Big().Cmp(want) != 0 {
				t.Fatalf("Mul w=%d mismatch", w)
			}
		}
	}
}

func TestMulCommutes(t *testing.T) {
	f := func(av, bv [4]uint32) bool {
		a, b := Nat(av[:]), Nat(bv[:])
		d1, d2 := NewNat(8), NewNat(8)
		Mul(d1, a, b, nil)
		Mul(d2, b, a, nil)
		return Cmp(d1, d2, nil) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulDistributesOverAdd(t *testing.T) {
	// (a+b)*c == a*c + b*c when a+b does not carry out.
	f := func(av, bv, cv [4]uint32) bool {
		av[3] &= 0x7fffffff
		bv[3] &= 0x7fffffff // ensure no carry out of the 4-limb sum
		a, b, c := Nat(av[:]), Nat(bv[:]), Nat(cv[:])
		sum := NewNat(4)
		if Add(sum, a, b, nil) != 0 {
			return true // skip carrying cases
		}
		lhs := NewNat(8)
		Mul(lhs, sum, c, nil)
		ac, bc := NewNat(8), NewNat(8)
		Mul(ac, a, c, nil)
		Mul(bc, b, c, nil)
		rhs := NewNat(8)
		Add(rhs, ac, bc, nil)
		return Cmp(lhs, rhs, nil) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKaratsubaCountsFewerMuls(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a, b := randNat(rng, 4), randNat(rng, 4)
	var mk, ms Counts
	dst := NewNat(8)
	Mul(dst, a, b, &mk)
	MulSchoolbook(dst, a, b, &ms)
	if mk[OpMul32] != 9 {
		t.Errorf("karatsuba4 mul32 count = %d, want 9", mk[OpMul32])
	}
	if ms[OpMul32] >= 16 && mk[OpMul32] >= ms[OpMul32] {
		t.Errorf("karatsuba (%d muls) not cheaper than schoolbook (%d)", mk[OpMul32], ms[OpMul32])
	}
}

// TestMulCost pins what Mul charges at the paper widths — the PIM
// product's cost: 1, 3 and 9 32×32 multiplies at W = 1, 2 and 4.
func TestMulCost(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, c := range []struct {
		w     int
		mul32 int64
	}{{1, 1}, {2, 3}, {4, 9}} {
		var m Counts
		Mul(NewNat(2*c.w), randNat(rng, c.w), randNat(rng, c.w), &m)
		if m[OpMul32] != c.mul32 {
			t.Errorf("w=%d: Mul charged %d mul32, want %d", c.w, m[OpMul32], c.mul32)
		}
	}
}

func BenchmarkMulKaratsuba4(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	x, y := randNat(rng, 4), randNat(rng, 4)
	dst := NewNat(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(dst, x, y, nil)
	}
}

func BenchmarkMulSchoolbook4(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	x, y := randNat(rng, 4), randNat(rng, 4)
	dst := NewNat(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSchoolbook(dst, x, y, nil)
	}
}
