package modring

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nt"
)

var testModuli = []uint64{
	3, 17, 65537,
	1<<30 - 35,
	1<<50 - 27,
	1<<61 - 1,
	1<<62 - 57,
}

func TestAddSubNeg(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, q := range testModuli {
		r := New(q)
		for i := 0; i < 200; i++ {
			a, b := rng.Uint64()%q, rng.Uint64()%q
			if got, want := r.Add(a, b), (a+b)%q; got != want && q < 1<<62 {
				// (a+b) can overflow only for q near 2^64, excluded by New.
				t.Fatalf("q=%d Add(%d,%d)=%d want %d", q, a, b, got, want)
			}
			want := new(big.Int).Sub(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, new(big.Int).SetUint64(q))
			if got := r.Sub(a, b); got != want.Uint64() {
				t.Fatalf("q=%d Sub mismatch", q)
			}
			if got := r.Add(a, r.Sub(0, a)); got != 0 {
				t.Fatalf("q=%d a + (-a) = %d", q, got)
			}
		}
	}
}

func TestMulMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, q := range testModuli {
		r := New(q)
		qb := new(big.Int).SetUint64(q)
		for i := 0; i < 500; i++ {
			a, b := rng.Uint64()%q, rng.Uint64()%q
			got := r.Mul(a, b)
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, qb)
			if got != want.Uint64() {
				t.Fatalf("q=%d: Mul(%d,%d) = %d, want %v", q, a, b, got, want)
			}
		}
		// Edge operands.
		for _, a := range []uint64{0, 1, q - 1} {
			for _, b := range []uint64{0, 1, q - 1} {
				got := r.Mul(a, b)
				want := nt.MulMod(a, b, q)
				if got != want {
					t.Fatalf("q=%d: Mul(%d,%d) = %d, want %d", q, a, b, got, want)
				}
			}
		}
	}
}

func TestMulProperty(t *testing.T) {
	r := New(1<<62 - 57)
	f := func(a, b uint64) bool {
		a, b = a%r.Q, b%r.Q
		return r.Mul(a, b) == nt.MulMod(a, b, r.Q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPowInv(t *testing.T) {
	q := uint64(1<<50 - 27) // prime
	r := New(q)
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 100; i++ {
		a := rng.Uint64()%(q-1) + 1
		inv := r.Inv(a)
		if r.Mul(a, inv) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
	}
	if r.Pow(3, 0) != 1 {
		t.Error("a^0 != 1")
	}
	if r.Pow(0, 5) != 0 {
		t.Error("0^e != 0")
	}
}

// TestMulShoup: the lazy Shoup product of any word a lies in [0, 2q) and
// is a·w mod q.
func TestMulShoup(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, q := range testModuli {
		r := New(q)
		for i := 0; i < 300; i++ {
			a, w := rng.Uint64(), rng.Uint64()%q
			ws := r.ShoupConst(w)
			if got, want := r.MulShoupLazy(a, w, ws), r.Mul(a%q, w); got >= 2*q || got%q != want {
				t.Fatalf("q=%d: MulShoupLazy(%d,%d) = %d, want %d mod q below 2q", q, a, w, got, want)
			}
		}
	}
}

func TestNewPanics(t *testing.T) {
	for _, q := range []uint64{0, 1, 1 << 62, 1 << 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", q)
				}
			}()
			New(q)
		}()
	}
}

func BenchmarkMulBarrett(b *testing.B) {
	r := New(1<<50 - 27)
	x, y := uint64(123456789012345), uint64(987654321098765)
	for i := 0; i < b.N; i++ {
		x = r.Mul(x, y)
	}
}

func BenchmarkMulShoup(b *testing.B) {
	r := New(1<<50 - 27)
	w := uint64(987654321098765) % r.Q
	ws := r.ShoupConst(w)
	x := uint64(123456789012345)
	for i := 0; i < b.N; i++ {
		x = r.MulShoupLazy(x, w, ws)
	}
}
