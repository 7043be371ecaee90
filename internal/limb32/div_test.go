package limb32

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDivModMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for wu := 1; wu <= 8; wu++ {
		for wv := 1; wv <= wu; wv++ {
			for i := 0; i < 80; i++ {
				u, v := randNat(rng, wu), randNat(rng, wv)
				if v.IsZero() {
					v[0] = 1
				}
				quot, rem := NewNat(wu), NewNat(wv)
				DivMod(quot, rem, u, v, nil)
				wantQ, wantR := new(big.Int).QuoRem(u.Big(), v.Big(), new(big.Int))
				if quot.Big().Cmp(wantQ) != 0 {
					t.Fatalf("wu=%d wv=%d: %v / %v quot = %v, want %#x", wu, wv, u, v, quot, wantQ)
				}
				if rem.Big().Cmp(wantR) != 0 {
					t.Fatalf("wu=%d wv=%d: %v %% %v rem = %v, want %#x", wu, wv, u, v, rem, wantR)
				}
			}
		}
	}
}

func TestDivModSmallDividend(t *testing.T) {
	u := Nat{5, 0}
	v := Nat{100, 0}
	quot, rem := NewNat(2), NewNat(2)
	DivMod(quot, rem, u, v, nil)
	if !quot.IsZero() || Cmp(rem, u, nil) != 0 {
		t.Errorf("5/100: quot=%v rem=%v", quot, rem)
	}
}

func TestDivModByOne(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	u := randNat(rng, 4)
	one := Nat{1, 0, 0, 0}
	quot, rem := NewNat(4), NewNat(4)
	DivMod(quot, rem, u, one, nil)
	if Cmp(quot, u, nil) != 0 || !rem.IsZero() {
		t.Errorf("u/1: quot=%v rem=%v, want %v/0", quot, rem, u)
	}
}

func TestDivModPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on division by zero")
		}
	}()
	DivMod(NewNat(2), NewNat(2), Nat{1, 0}, NewNat(2), nil)
}

func TestDivModAddBackCase(t *testing.T) {
	// Construct the classic add-back trigger: divisor with max top limb,
	// dividend shaped to force qhat overestimation.
	u := Nat{0, 0, 0x00000001, 0x80000000, 0x7fffffff, 0}
	v := Nat{0xffffffff, 0xffffffff, 0x80000000}
	quot, rem := NewNat(6), NewNat(3)
	DivMod(quot, rem, u, v, nil)
	wantQ, wantR := new(big.Int).QuoRem(u.Big(), v.Big(), new(big.Int))
	if quot.Big().Cmp(wantQ) != 0 || rem.Big().Cmp(wantR) != 0 {
		t.Fatalf("add-back case: quot=%v rem=%v, want %#x %#x", quot, rem, wantQ, wantR)
	}
}

func TestDivModReconstruction(t *testing.T) {
	// u == quot*v + rem for random inputs (property-based).
	f := func(uv [6]uint32, vv [3]uint32) bool {
		u, v := Nat(uv[:]), Nat(vv[:])
		if v.IsZero() {
			return true
		}
		quot, rem := NewNat(6), NewNat(3)
		DivMod(quot, rem, u, v, nil)
		recon := new(big.Int).Mul(quot.Big(), v.Big())
		recon.Add(recon, rem.Big())
		return recon.Cmp(u.Big()) == 0 && rem.Big().Cmp(v.Big()) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestModOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	u, v := randNat(rng, 6), randNat(rng, 3)
	if v.IsZero() {
		v[0] = 7
	}
	rem := NewNat(3)
	Mod(rem, u, v, nil)
	want := new(big.Int).Mod(u.Big(), v.Big())
	if rem.Big().Cmp(want) != 0 {
		t.Errorf("Mod mismatch: %v, want %#x", rem, want)
	}
}
