package kernels

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/limb32"
)

// checkRun holds one productRun to the oracle it stands for: a run of a
// times every coefficient of b, into accumulators that start at acc0,
// must leave the same accumulator limbs and the same tally as
// limb32.Mul followed by accumAdd, product by product.
func checkRun(t *testing.T, name string, w int, a []uint32, b [][]uint32, acc0 []uint32) {
	t.Helper()
	accW := 2*w + 1
	var flat []uint32
	for _, bt := range b {
		flat = append(flat, bt...)
	}
	var want, got limb32.Counts
	wantAcc := append([]uint32(nil), acc0...)
	prod := make(limb32.Nat, 2*w)
	for i, bt := range b {
		limb32.Mul(prod, a, bt, &want)
		accumAdd(wantAcc[i*accW:(i+1)*accW], prod, &want)
	}
	gotAcc := append([]uint32(nil), acc0...)
	productRunFor(w, make(limb32.Nat, 2*w))(gotAcc, a, flat, &got)
	if got != want {
		t.Errorf("%s: tally %v, limb32 charges %v", name, got, want)
	}
	for i := range wantAcc {
		if gotAcc[i] != wantAcc[i] {
			t.Fatalf("%s: accumulator %d limb %d = %#x, limb32 gives %#x",
				name, i/accW, i%accW, gotAcc[i], wantAcc[i])
		}
	}
}

// limbs returns x as w little-endian 32-bit limbs.
func limbs(x *big.Int, w int) []uint32 { return limb32.FromBig(x, w) }

// pow2 returns 2^e.
func pow2(e int) *big.Int { return new(big.Int).Lsh(big.NewInt(1), uint(e)) }

// startAcc returns count accumulators of width 2w+1 whose low 2w limbs
// are all ones — so every product carries into the top limb — and whose
// top limb is small enough never to wrap.
func startAcc(count, w int) []uint32 {
	accW := 2*w + 1
	acc := make([]uint32, count*accW)
	for i := range acc {
		if i%accW != 2*w {
			acc[i] = 0xffffffff
		}
	}
	return acc
}

// TestProductRunsMatchLimb32 pins every width's run body to limb32.Mul +
// accumAdd on the operands where the word-level bodies could go wrong:
// every pattern of zero limbs in a (the schoolbook rows that are
// skipped), the extreme b values, and prefix products that land exactly
// on either side of the boundary that decides whether a row ripples.
func TestProductRunsMatchLimb32(t *testing.T) {
	// Width 1: the extremes of both factors, into accumulators whose low
	// word is all ones, so any nonzero product carries into the top limb.
	extremes := []uint32{0, 1, 0xffffffff, 0x12345678}
	var b1 [][]uint32
	for _, v := range extremes {
		b1 = append(b1, []uint32{v})
	}
	for _, av := range extremes {
		checkRun(t, fmt.Sprintf("w1 a=%#x", av), 1, []uint32{av}, b1, startAcc(len(b1), 1))
		checkRun(t, fmt.Sprintf("w1 a=%#x zero acc", av), 1, []uint32{av}, b1, make([]uint32, 3*len(b1)))
	}

	// Width 8: b ∈ {0, 1, 2²⁵⁶−1, lift−1, small} against every zero-limb
	// mask of a, with all-ones and with random nonzero limbs.
	lift := new(big.Int).Sub(pow2(256), big.NewInt(189))
	var b8 [][]uint32
	for _, v := range []*big.Int{
		big.NewInt(0), big.NewInt(1), new(big.Int).Sub(pow2(256), big.NewInt(1)),
		new(big.Int).Sub(lift, big.NewInt(1)), big.NewInt(0x3ffffff),
	} {
		b8 = append(b8, limbs(v, 8))
	}
	rng := rand.New(rand.NewSource(2801))
	for mask := 0; mask < 256; mask++ {
		for _, fill := range []string{"ones", "random"} {
			a := make([]uint32, 8)
			for r := range a {
				if mask>>r&1 == 0 {
					continue // limb r is zero: its row is skipped
				}
				a[r] = 0xffffffff
				if fill == "random" {
					a[r] = rng.Uint32() | 1
				}
			}
			checkRun(t, fmt.Sprintf("w8 mask %08b %s", mask, fill), 8, a, b8, startAcc(len(b8), 8))
		}
	}

	// Width 8, at the ripple boundary. Row r ripples exactly when limb
	// r+8 of the prefix product (a mod 2^(32(r+1)))·b is nonzero, so put
	// that product on 2^(32(r+8)) − 1 and on 2^(32(r+8)). The first is
	// (2^m − 1)·((2^(32(r+8)) − 1)/(2^m − 1)) for an m dividing 32(r+8)
	// with 32r < m ≤ 32(r+1), which exists for r ∈ {0, 1, 2, 6, 7}; the
	// second is 2^(32r+1)·2²⁵⁵. Each runs once with a's limbs above r
	// zero and once with them all ones, so later rows start from the
	// boundary too.
	type boundary struct {
		name          string
		prefA, target *big.Int
	}
	for r := 0; r < 8; r++ {
		top := pow2(32 * (r + 8))
		cases := []boundary{{"2^(32(r+8))", pow2(32*r + 1), top}}
		for m := 32*r + 1; m <= 32*(r+1); m++ {
			if 32*(r+8)%m == 0 {
				cases = append(cases, boundary{"2^(32(r+8))-1",
					new(big.Int).Sub(pow2(m), big.NewInt(1)), new(big.Int).Sub(top, big.NewInt(1))})
				break
			}
		}
		for _, c := range cases {
			bv, rem := new(big.Int).QuoRem(c.target, c.prefA, new(big.Int))
			if rem.Sign() != 0 || bv.BitLen() > 256 || c.prefA.BitLen() <= 32*r {
				t.Fatalf("r=%d %s: bad factorisation", r, c.name)
			}
			// b itself and its neighbours: the prefix product one a
			// below and one a above the boundary.
			var bs [][]uint32
			for _, d := range []int64{0, -1, 1} {
				if v := new(big.Int).Add(bv, big.NewInt(d)); v.BitLen() <= 256 {
					bs = append(bs, limbs(v, 8))
				}
			}
			a := limbs(c.prefA, 8)
			name := fmt.Sprintf("w8 r=%d prefix %s", r, c.name)
			checkRun(t, name+", higher limbs zero", 8, a, bs, startAcc(len(bs), 8))
			for k := r + 1; k < 8; k++ {
				a[k] = 0xffffffff
			}
			checkRun(t, name+", higher limbs ones", 8, a, bs, startAcc(len(bs), 8))
		}
	}

	// Widths 2 and 4 run limb32.Mul itself; hold them to the same oracle.
	for _, w := range []int{2, 4} {
		var bw [][]uint32
		for i := 0; i < 5; i++ {
			bw = append(bw, limbs(new(big.Int).Rand(rng, pow2(32*w)), w))
		}
		checkRun(t, fmt.Sprintf("w%d", w), w, limbs(new(big.Int).Rand(rng, pow2(32*w)), w), bw, startAcc(len(bw), w))
	}
}

// TestProductRunsRandom sweeps random operands whose limbs are zero, all
// ones or random, in runs of every length up to 40, for both word-level
// bodies.
func TestProductRunsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2802))
	limb := func() uint32 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return 0xffffffff
		}
		return rng.Uint32()
	}
	for _, w := range []int{1, 8} {
		for it := 0; it < 400; it++ {
			a := make([]uint32, w)
			for i := range a {
				a[i] = limb()
			}
			b := make([][]uint32, it%41)
			for i := range b {
				b[i] = make([]uint32, w)
				for j := range b[i] {
					b[i][j] = limb()
				}
			}
			acc := make([]uint32, len(b)*(2*w+1))
			for i := range acc {
				if i%(2*w+1) != 2*w {
					acc[i] = limb()
				}
			}
			checkRun(t, fmt.Sprintf("w%d sweep %d", w, it), w, a, b, acc)
		}
	}
}
