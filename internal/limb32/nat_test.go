package limb32

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func randNat(rng *rand.Rand, width int) Nat {
	n := NewNat(width)
	for i := range n {
		n[i] = rng.Uint32()
	}
	return n
}

func TestBigRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for w := 1; w <= 9; w++ {
		for i := 0; i < 50; i++ {
			n := randNat(rng, w)
			got := FromBig(n.Big(), w)
			if Cmp(got, n, nil) != 0 {
				t.Fatalf("width %d: big round trip %v != %v", w, got, n)
			}
		}
	}
}

func TestBitLen(t *testing.T) {
	cases := []struct {
		n    Nat
		want int
	}{
		{NewNat(4), 0},
		{Nat{1, 0, 0, 0}, 1},
		{Nat{0x80000000, 0, 0, 0}, 32},
		{Nat{0, 2, 0, 0}, 34},
		{Nat{0, 0, 0, 1}, 97},
	}
	for _, c := range cases {
		if got := c.n.BitLen(); got != c.want {
			t.Errorf("BitLen(%v) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTrimmedLen(t *testing.T) {
	if got := NewNat(4).TrimmedLen(); got != 0 {
		t.Errorf("TrimmedLen(0) = %d", got)
	}
	if got := (Nat{5, 0, 0, 0}).TrimmedLen(); got != 1 {
		t.Errorf("TrimmedLen = %d, want 1", got)
	}
	if got := (Nat{5, 0, 7, 0}).TrimmedLen(); got != 3 {
		t.Errorf("TrimmedLen = %d, want 3", got)
	}
}

func TestAddMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for w := 1; w <= 8; w++ {
		for i := 0; i < 100; i++ {
			a, b := randNat(rng, w), randNat(rng, w)
			dst := NewNat(w)
			carry := Add(dst, a, b, nil)
			want := new(big.Int).Add(a.Big(), b.Big())
			wantCarry := new(big.Int).Rsh(want, uint(32*w))
			want.SetBit(want, 32*w+1, 0) // irrelevant; mask below
			mask := new(big.Int).Lsh(big.NewInt(1), uint(32*w))
			mask.Sub(mask, big.NewInt(1))
			want.And(want, mask)
			if dst.Big().Cmp(want) != 0 {
				t.Fatalf("w=%d Add mismatch: %v+%v", w, a, b)
			}
			if uint64(carry) != wantCarry.Uint64() {
				t.Fatalf("w=%d Add carry mismatch", w)
			}
		}
	}
}

func TestSubMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for w := 1; w <= 8; w++ {
		for i := 0; i < 100; i++ {
			a, b := randNat(rng, w), randNat(rng, w)
			dst := NewNat(w)
			borrow := Sub(dst, a, b, nil)
			want := new(big.Int).Sub(a.Big(), b.Big())
			wantBorrow := uint32(0)
			if want.Sign() < 0 {
				wantBorrow = 1
				mod := new(big.Int).Lsh(big.NewInt(1), uint(32*w))
				want.Add(want, mod)
			}
			if dst.Big().Cmp(want) != 0 {
				t.Fatalf("w=%d Sub mismatch: %v-%v", w, a, b)
			}
			if borrow != wantBorrow {
				t.Fatalf("w=%d Sub borrow mismatch", w)
			}
		}
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(av, bv [4]uint32) bool {
		a, b := Nat(av[:]).Clone(), Nat(bv[:]).Clone()
		sum := NewNat(4)
		carry := Add(sum, a, b, nil)
		back := NewNat(4)
		borrow := Sub(back, sum, b, nil)
		return Cmp(back, a, nil) == 0 && carry == borrow
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddModSubModNegMod(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for w := 1; w <= 4; w++ {
		q := randNat(rng, w)
		q[w-1] |= 0x80000000 // ensure top limb set so values below stay < q
		for i := 0; i < 200; i++ {
			a, b := randNat(rng, w), randNat(rng, w)
			Mod(a, a.Clone(), q, nil)
			Mod(b, b.Clone(), q, nil)
			qb := q.Big()

			dst := NewNat(w)
			AddMod(dst, a, b, q, nil)
			want := new(big.Int).Add(a.Big(), b.Big())
			want.Mod(want, qb)
			if dst.Big().Cmp(want) != 0 {
				t.Fatalf("AddMod mismatch w=%d", w)
			}

			SubMod(dst, a, b, q, nil)
			want.Sub(a.Big(), b.Big())
			want.Mod(want, qb)
			if dst.Big().Cmp(want) != 0 {
				t.Fatalf("SubMod mismatch w=%d", w)
			}

			NegMod(dst, a, q, nil)
			want.Neg(a.Big())
			want.Mod(want, qb)
			if dst.Big().Cmp(want) != 0 {
				t.Fatalf("NegMod mismatch w=%d", w)
			}
		}
	}
}

func TestCmp(t *testing.T) {
	a := Nat{0, 1}
	b := Nat{0xffffffff, 0}
	if Cmp(a, b, nil) != 1 || Cmp(b, a, nil) != -1 || Cmp(a, a, nil) != 0 {
		t.Error("Cmp ordering wrong")
	}
}

func TestMeterCharges(t *testing.T) {
	var m Counts
	a, b := Nat{1, 0, 0, 0}, Nat{2, 0, 0, 0}
	dst := NewNat(4)
	Add(dst, a, b, &m)
	if m[OpAdd] != 1 || m[OpAddC] != 3 {
		t.Errorf("Add metering: add=%d addc=%d, want 1/3", m[OpAdd], m[OpAddC])
	}
	if m[OpLoad] != 8 || m[OpStore] != 4 {
		t.Errorf("Add metering: load=%d store=%d, want 8/4", m[OpLoad], m[OpStore])
	}
	m.Reset()
	if m != (Counts{}) {
		t.Error("Reset failed")
	}
}

func TestOpString(t *testing.T) {
	if OpAdd.String() != "add" || OpMul32.String() != "mul32" {
		t.Error("Op names wrong")
	}
	if Op(99).String() != "op?" {
		t.Error("out-of-range Op name")
	}
}
