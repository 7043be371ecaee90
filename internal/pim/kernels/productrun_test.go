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

// checkAdd holds the add run body to the loop of limb32.AddMod it stands
// for, over the W-limb coefficients of a and b: the same output limbs and
// the same full tally. With alias set, dst is a, as VectorSum calls it;
// otherwise dst is a separate buffer of stale words, as VectorAdd's is.
// The run is split in two calls before the one charge, as a tasklet adds
// a tile at a time.
func checkAdd(t *testing.T, name string, q limb32.Nat, a, b []uint32, alias bool) {
	t.Helper()
	w := len(q)
	var want, got limb32.Counts
	wantDst := append([]uint32(nil), a...)
	for i := 0; i < len(a); i += w {
		limb32.AddMod(wantDst[i:i+w], a[i:i+w], b[i:i+w], q, &want)
	}
	gotDst, gotA := make([]uint32, len(a)), append([]uint32(nil), a...)
	for i := range gotDst {
		gotDst[i] = 0xdeadbeef
	}
	if alias {
		gotDst = gotA
	}
	run := newAddRun(q)
	half := len(a) / w / 2 * w
	run.add(gotDst[:half], gotA[:half], b[:half], &got)
	run.add(gotDst[half:], gotA[half:], b[half:], &got)
	run.charge(&got)
	if got != want {
		t.Errorf("%s: tally %v, limb32.AddMod charges %v", name, got, want)
	}
	for i := range wantDst {
		if gotDst[i] != wantDst[i] {
			t.Fatalf("%s: coefficient %d limb %d = %#x, limb32.AddMod gives %#x",
				name, i/w, i%w, gotDst[i], wantDst[i])
		}
	}
}

// TestAddRunsMatchLimb32 pins the add run body to limb32.AddMod where the
// word-level W = 4 body could go wrong: sums that carry out of 128 bits
// (only a full-width modulus reaches them; the 109-bit presets never
// carry), sums on either side of q and equal to it, sums that agree with
// q in their top one, two or three limbs and differ from it at the top or
// the bottom bit of the next, zero operands and random ones, with dst
// aliasing a and not. The other widths call limb32.AddMod and are held to
// it on random operands.
func TestAddRunsMatchLimb32(t *testing.T) {
	rng := rand.New(rand.NewSource(3901))
	one := big.NewInt(1)
	moduli := map[string]*big.Int{
		"q109":          modulusFor(t, 4).QBig,
		"q2^128-159":    new(big.Int).Sub(pow2(128), big.NewInt(159)),
		"q2^127+2^64+1": new(big.Int).Add(new(big.Int).Add(pow2(127), pow2(64)), one),
	}
	for qname, qb := range moduli {
		q := limbs(qb, 4)
		maxSum := new(big.Int).Sub(new(big.Int).Lsh(qb, 1), big.NewInt(2))
		targets := map[string]*big.Int{
			"s=0":           new(big.Int),
			"s=q-1":         new(big.Int).Sub(qb, one),
			"s=q":           new(big.Int).Set(qb),
			"s=q+1":         new(big.Int).Add(qb, one),
			"s=2q-2":        maxSum,
			"s=2^128-1":     new(big.Int).Sub(pow2(128), one),
			"s=2^128":       pow2(128),
			"s=2^128+(q-1)": new(big.Int).Add(pow2(128), new(big.Int).Sub(qb, one)),
		}
		// s agrees with q in its top k limbs and differs in limb 3−k: at
		// that limb's top bit, its bottom bit, or with the lower limbs all
		// zero or all ones. A sum of 2¹²⁸ or more also carries out and
		// must not be compared at all.
		for k := 1; k <= 3; k++ {
			low := 32 * (4 - k)
			top := new(big.Int).Lsh(new(big.Int).Rsh(qb, uint(low)), uint(low))
			for _, s := range []struct {
				name string
				v    *big.Int
			}{
				{"top bit flipped", new(big.Int).Xor(qb, pow2(low-1))},
				{"bottom bit flipped", new(big.Int).Xor(qb, pow2(low-32))},
				{"lower limbs zero", top},
				{"lower limbs ones", new(big.Int).Add(top, new(big.Int).Sub(pow2(low), one))},
				{"carried, lower limbs zero", new(big.Int).Add(pow2(128), top)},
			} {
				targets[fmt.Sprintf("top %d limbs of q, %s", k, s.name)] = s.v
			}
		}
		for tname, target := range targets {
			if target.Cmp(maxSum) > 0 {
				continue // no two residues below q sum to it
			}
			// Each target as three splits: halves, and a or b at q−1
			// (or at the target itself when it is below q).
			var a, b []uint32
			aHi := new(big.Int).Sub(qb, one)
			if target.Cmp(aHi) < 0 {
				aHi.Set(target)
			}
			half := new(big.Int).Rsh(target, 1)
			for _, x := range []*big.Int{half, aHi, new(big.Int).Sub(target, aHi)} {
				y := new(big.Int).Sub(target, x)
				a = append(a, limbs(x, 4)...)
				b = append(b, limbs(y, 4)...)
			}
			for _, alias := range []bool{true, false} {
				checkAdd(t, fmt.Sprintf("%s %s alias=%v", qname, tname, alias), q, a, b, alias)
			}
		}
		// Zero operands and random residues.
		var a, b []uint32
		for i := 0; i < 200; i++ {
			x, y := new(big.Int).Rand(rng, qb), new(big.Int).Rand(rng, qb)
			switch i % 10 {
			case 0:
				x.SetInt64(0)
			case 1:
				y.SetInt64(0)
			case 2:
				x.SetInt64(0)
				y.SetInt64(0)
			}
			a = append(a, limbs(x, 4)...)
			b = append(b, limbs(y, 4)...)
		}
		for _, alias := range []bool{true, false} {
			checkAdd(t, fmt.Sprintf("%s random alias=%v", qname, alias), q, a, b, alias)
		}
	}

	// Widths 1, 2 and 8 call limb32.AddMod; the run and its charge must
	// still leave its limbs and its tally.
	for _, w := range []int{1, 2, 8} {
		mod := modulusFor(t, w)
		a, b := randVec(rng, 40, mod), randVec(rng, 40, mod)
		for _, alias := range []bool{true, false} {
			checkAdd(t, fmt.Sprintf("w%d random alias=%v", w, alias), mod.Q, a, b, alias)
		}
	}
}
