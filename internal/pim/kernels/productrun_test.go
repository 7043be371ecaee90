package kernels

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/limb32"
	"repro/internal/pim"
	"repro/internal/pimsched"
	"repro/internal/poly"
)

// checkRuns holds the product kernel's two halves to what they stand
// for on the operands as and b, lists of W-limb coefficients: the tally
// of every product a·b_t, a in as (checkTally), and the exact product
// of as and b as polynomials (checkConv).
func checkRuns(t *testing.T, name string, w int, as, b [][]uint32) {
	t.Helper()
	checkTally(t, name, w, as, b)
	checkConv(t, name, w, as, b)
}

// checkTally holds productTally's count of every product a·b_t, a in
// as — each a a tile of one coefficient against the window b — charged
// once, to what limb32.Mul followed by accumAdd charge product by
// product.
func checkTally(t *testing.T, name string, w int, as, b [][]uint32) {
	t.Helper()
	var flat []uint32
	for _, bt := range b {
		flat = append(flat, bt...)
	}
	var want, got limb32.Counts
	prod, acc := make(limb32.Nat, 2*w), make([]uint32, 2*w+1)
	tally := productTally{w: w, prod: make(limb32.Nat, 2*w)}
	for _, a := range as {
		for _, bt := range b {
			limb32.Mul(prod, a, bt, &want)
			accumAdd(acc, prod, &want)
		}
		tally.tile(a, flat, len(b))
	}
	tally.charge(&got)
	if got != want {
		t.Errorf("%s: tally %v, limb32 charges %v", name, got, want)
	}
}

// accumAdd adds a 2w-limb product into a (2w+1)-limb accumulator with an
// addc chain, charging the tasklet: the per-product program's
// accumulation, whose tally productTally charges from the count.
func accumAdd(acc []uint32, src limb32.Nat, m limb32.Meter) {
	var carry uint64
	for i := 0; i < len(src); i++ {
		s := uint64(acc[i]) + uint64(src[i]) + carry
		acc[i] = uint32(s)
		carry = s >> 32
	}
	if carry != 0 {
		acc[len(src)] += uint32(carry) // accumulator is sized to never carry out
	}
	m.Tick(limb32.OpLoad, len(src))
	m.Tick(limb32.OpAddC, len(src)+1)
	m.Tick(limb32.OpStore, len(src))
	m.Tick(limb32.OpLoop, len(src))
}

// checkConv holds convolve's exact plain product of x and y, as
// polynomials, to their product over the integers as
// poly.MulNegacyclicZ forms it — a Kronecker product that shares no
// code with the kernel — zero-padded to 2n coefficients so that nothing
// wraps.
func checkConv(t *testing.T, name string, w int, x, y [][]uint32) {
	t.Helper()
	accW := 2*w + 1
	n := max(len(x), len(y))
	pack := func(c [][]uint32) ([]uint32, []*big.Int) {
		flat, coeffs := make([]uint32, n*w), make([]*big.Int, 2*n)
		for i := range coeffs {
			coeffs[i] = new(big.Int)
		}
		for i, v := range c {
			copy(flat[i*w:], v)
			coeffs[i] = limb32.Nat(v).Big()
		}
		return flat, coeffs
	}
	fx, bx := pack(x)
	fy, by := pack(y)
	plan, err := convPlanFor(n)
	if err != nil {
		t.Fatal(err)
	}
	conv := make([]uint64, 2*n*convWords(w))
	plan.convolve(conv, make([]uint64, plan.scratchWords(w)), fx, fy, w)
	ref := poly.MulNegacyclicZ(bx, by)
	got := make([]uint32, accW)
	for k := 0; k < 2*n; k++ {
		unpackLimbs(got, conv[k*convWords(w):])
		if want := limb32.FromBig(ref[k], accW); !slices.Equal(got, want) {
			t.Fatalf("%s: product coefficient %d = %v, want %v", name, k, limb32.Nat(got), want)
		}
	}
}

// checkRun is checkRuns for a single a.
func checkRun(t *testing.T, name string, w int, a []uint32, b [][]uint32) {
	t.Helper()
	checkRuns(t, name, w, [][]uint32{a}, b)
}

// limbs returns x as w little-endian 32-bit limbs.
func limbs(x *big.Int, w int) []uint32 { return limb32.FromBig(x, w) }

// pow2 returns 2^e.
func pow2(e int) *big.Int { return new(big.Int).Lsh(big.NewInt(1), uint(e)) }

// TestProductRunsMatchLimb32 pins the product kernel's tally and values
// to limb32.Mul + accumAdd and to the integer product on the operands
// where the counting could go wrong: every pattern of zero limbs in a
// (the schoolbook rows that are skipped), the extreme b values, and
// prefix products that land exactly on either side of the boundary that
// decides whether a row ripples.
func TestProductRunsMatchLimb32(t *testing.T) {
	// Width 1: the extremes of both factors, one a at a time and all of
	// them into the same outputs, whose sums then carry into the top limb.
	extremes := []uint32{0, 1, 0xffffffff, 0x12345678}
	var b1 [][]uint32
	for _, v := range extremes {
		b1 = append(b1, []uint32{v})
	}
	for _, av := range extremes {
		checkRun(t, fmt.Sprintf("w1 a=%#x", av), 1, []uint32{av}, b1)
	}
	checkRuns(t, "w1 every a into the same outputs", 1, b1, b1)

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
			checkRun(t, fmt.Sprintf("w8 mask %08b %s", mask, fill), 8, a, b8)
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
			checkRun(t, name+", higher limbs zero", 8, a, bs)
			for k := r + 1; k < 8; k++ {
				a[k] = 0xffffffff
			}
			checkRun(t, name+", higher limbs ones", 8, a, bs)
		}
	}

	// Widths 2 and 4: Karatsuba over 32-bit chunks, its tally a constant
	// at W = 2 and formed product by product at W = 4.
	for _, w := range []int{2, 4} {
		var bw [][]uint32
		for i := 0; i < 5; i++ {
			bw = append(bw, limbs(new(big.Int).Rand(rng, pow2(32*w)), w))
		}
		checkRun(t, fmt.Sprintf("w%d", w), w, limbs(new(big.Int).Rand(rng, pow2(32*w)), w), bw)
	}
}

// TestProductRunsRandom sweeps random operands whose limbs are zero, all
// ones or random, against windows of every length up to 40, at every
// width.
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
	for _, w := range []int{1, 2, 4, 8} {
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
			checkRun(t, fmt.Sprintf("w%d sweep %d", w, it), w, a, b)
		}
	}
}

// TestConvolveAtBoundMatchesBig holds convolve to the integer product
// where its prime count is tightest, at W ∈ {1, 2, 4, 8} and n ∈ {1024,
// 4096}: every coefficient 2^(32W) − 1 (the middle coefficient of the
// product is n·(2^(32W) − 1)², just below 2^(64W+lg)); a single maximal
// coefficient, alone and against all-maximal b; and every coefficient
// 2^ba − 1 and 2^bb − 1 with ba + bb + lg on a multiple of the 60 bits
// a prime is counted as, and one bit past it, where one more prime is
// taken. n = 4096 is skipped under -short.
func TestConvolveAtBoundMatchesBig(t *testing.T) {
	fill := func(n, w, b int) [][]uint32 {
		v := limbs(new(big.Int).Sub(pow2(b), big.NewInt(1)), w)
		return slices.Repeat([][]uint32{v}, n)
	}
	ns := []int{1024, 4096}
	if testing.Short() {
		ns = ns[:1]
	}
	for _, w := range []int{1, 2, 4, 8} {
		for _, n := range ns {
			lg := bits.Len(uint(n - 1))
			top := fill(n, w, 32*w)
			one := make([][]uint32, n)
			for i := range one {
				one[i] = make([]uint32, w)
			}
			one[n-1] = top[0]
			checkConv(t, fmt.Sprintf("w%d n=%d all 2^%d-1", w, n, 32*w), w, top, top)
			checkConv(t, fmt.Sprintf("w%d n=%d one maximal coefficient each", w, n), w, one, one)
			checkConv(t, fmt.Sprintf("w%d n=%d one maximal coefficient × all maximal", w, n), w, one, top)
			for bound := primeBits; bound <= 64*w+lg; bound += primeBits {
				for _, e := range []int{bound, bound + 1} {
					ba := min(32*w, (e-lg+1)/2)
					bb := e - lg - ba
					if bb < 1 || bb > 32*w {
						continue
					}
					checkConv(t, fmt.Sprintf("w%d n=%d ba+bb+lg=%d (%d+%d+%d)", w, n, e, ba, bb, lg), w,
						fill(n, w, ba), fill(n, w, bb))
				}
			}
		}
	}
}

// signedValues returns 256-bit operands on both sides of the signed-word
// test of the W = 8 body: σ = v read as two's complement at 0, ±1,
// ±(2⁶³ − 1) and −2⁶³, lifted centred coefficients (x and 2²⁵⁶ − 189 − x),
// and values just outside a word — 2⁶³, 2²⁵⁵, 2²⁵⁶ − 2⁶³ − 1 — or far
// from one.
func signedValues(rng *rand.Rand) []namedValue {
	one := big.NewInt(1)
	top := pow2(256)
	lift := new(big.Int).Sub(top, big.NewInt(189))
	neg := func(x *big.Int) *big.Int { return new(big.Int).Sub(top, x) }
	return []namedValue{
		{"0", new(big.Int)},
		{"1", one},
		{"2^26-1", big.NewInt(0x3ffffff)},
		{"2^63-1", new(big.Int).Sub(pow2(63), one)},
		{"-1", neg(one)},
		{"-(2^63-1)", neg(new(big.Int).Sub(pow2(63), one))},
		{"-2^63", neg(pow2(63))},
		{"lift-1", new(big.Int).Sub(lift, one)},
		{"lift-(2^26-1)", new(big.Int).Sub(lift, big.NewInt(0x3ffffff))},
		{"2^32", pow2(32)},
		{"2^63", pow2(63)},
		{"2^64-1", new(big.Int).Sub(pow2(64), one)},
		{"2^255", pow2(255)},
		{"2^256-2^63-1", new(big.Int).Sub(neg(pow2(63)), one)},
		{"2^256-2^64", neg(pow2(64))},
		{"random", new(big.Int).Rand(rng, top)},
		{"random negative", new(big.Int).Or(new(big.Int).Rand(rng, top), pow2(255))},
	}
}

type namedValue struct {
	name string
	v    *big.Int
}

// TestProductRunsSignedWords holds the W = 8 halves to limb32.Mul +
// accumAdd and to the integer product on both sides of a signed word:
// every pair of signedValues, one a at a time and all of them into the
// same outputs, and 4096 products of the largest σ into one output
// (σσ sums to 2¹³⁸, a term the CRT must size from the operands and the
// degree).
func TestProductRunsSignedWords(t *testing.T) {
	vals := signedValues(rand.New(rand.NewSource(4401)))
	var all [][]uint32
	for _, v := range vals {
		all = append(all, limbs(v.v, 8))
	}
	for i, v := range vals {
		checkRun(t, "a="+v.name, 8, all[i], all)
	}
	checkRuns(t, "every a into the same outputs", 8, all, all)

	// 4096 products of σ = −2⁶³ by −2⁶³ (S = 2¹³⁸) and by 2⁶³ − 1
	// (S ≈ −2¹³⁸), and the two alternating, into output 4095.
	minWord := limbs(new(big.Int).Sub(pow2(256), pow2(63)), 8)
	maxWord := limbs(new(big.Int).Sub(pow2(63), big.NewInt(1)), 8)
	same, maxes, mixed := make([][]uint32, 4096), make([][]uint32, 4096), make([][]uint32, 4096)
	for i := range same {
		same[i], maxes[i], mixed[i] = minWord, maxWord, minWord
		if i%2 == 0 {
			mixed[i] = maxWord
		}
	}
	for _, c := range []struct {
		name string
		x, y [][]uint32
	}{
		{"4096 × (−2^63)·(−2^63)", same, same},
		{"4096 × (−2^63)·(2^63−1)", same, maxes},
		{"4096 alternating signs", mixed, same},
	} {
		checkTally(t, c.name, 8, c.x, c.y[:1])
		checkConv(t, c.name, 8, c.x, c.y)
	}
}

// rippleThresholds returns, for h = ⌊A_r / 2^(32r−32)⌋ = a_r·2³² +
// a_(r−1), the prefix of an 8-limb a through its schoolbook row r, the
// two thresholds on b's top word b₃ between which b's lower words decide
// whether the row ripples a carry past its end: below ⌊2⁹⁶/(h+1)⌋ it
// cannot, above ⌊(2⁹⁶−1)/h⌋ it does.
func rippleThresholds(h uint64) (lo, hi uint64) {
	hb := new(big.Int).SetUint64(h)
	lo = new(big.Int).Quo(pow2(96), new(big.Int).Add(hb, big.NewInt(1))).Uint64()
	hi = new(big.Int).Quo(new(big.Int).Sub(pow2(96), big.NewInt(1)), hb).Uint64()
	return lo, hi
}

// around returns each word v of vs with v − 1 and v + 1, where they are
// words.
func around(vs ...uint64) []uint64 {
	var out []uint64
	for _, v := range vs {
		out = append(out, v)
		if v > 0 {
			out = append(out, v-1)
		}
		if v < 1<<64-1 {
			out = append(out, v+1)
		}
	}
	return out
}

// TestProductRunsRippleEdges holds the W = 8 halves to limb32.Mul +
// accumAdd and to the integer product where schoolbook rows sit on the
// edge of rippling: a with h_r = 2³² (limb r is 1, the limbs below
// zero) and h_r = 2⁶⁴ − 1 (limbs r and r−1 all ones), against b whose
// top word sits on either threshold or one either side, with lower
// words all zero or all ones, and against b = 2²⁵⁶ − 1 and 2²⁵⁶ − 2⁶³.
func TestProductRunsRippleEdges(t *testing.T) {
	var bs [][]uint32
	for _, h := range []uint64{1 << 32, 1<<64 - 1} {
		lo, hi := rippleThresholds(h)
		for _, b3 := range around(lo, hi) {
			for _, low := range []*big.Int{new(big.Int), new(big.Int).Sub(pow2(192), big.NewInt(1))} {
				v := new(big.Int).Lsh(new(big.Int).SetUint64(b3), 192)
				bs = append(bs, limbs(v.Or(v, low), 8))
			}
		}
	}
	bs = append(bs, limbs(new(big.Int).Sub(pow2(256), big.NewInt(1)), 8),
		limbs(new(big.Int).Sub(pow2(256), pow2(63)), 8))
	for r := 0; r < 8; r++ {
		checkRun(t, fmt.Sprintf("h_%d = 2^32", r), 8, limbs(pow2(32*r), 8), bs)
		ones := new(big.Int).Sub(pow2(32*(r+1)), big.NewInt(1))
		checkRun(t, fmt.Sprintf("h_%d = 2^64-1", r), 8, limbs(ones, 8), bs)
		negOnes := new(big.Int).Sub(pow2(256), pow2(32*r)) // limbs ≥ r all ones: σ < 0
		checkRun(t, fmt.Sprintf("a = -2^(32·%d)", r), 8, limbs(negOnes, 8), bs)
	}
}

// TestModTallyMatchesLimb32 holds the one-limb reduction of a product
// coefficient's sum to limb32.Mod on the three-limb accumulator it
// replaces — the remainder and the tally — for sums below, at and
// above q, at every trimmed length, at 2⁹⁶ − 1 (whose fold of the top
// word carries out of 64 bits) and at random, by moduli from 2 to
// 2³² − 1.
func TestModTallyMatchesLimb32(t *testing.T) {
	rng := rand.New(rand.NewSource(5103))
	for _, q := range []uint32{2, 3, 134217689, 2147483647, 4294967291, 1<<32 - 1} {
		q64 := uint64(q)
		vals := [][2]uint64{
			{0, 0}, {q64 - 1, 0}, {q64, 0}, {q64 + 1, 0}, {1 << 32, 0}, {1<<64 - 1, 0},
			{0, 1}, {1<<64 - 1, 1<<32 - 1}, {q64 - 1, q64 - 1}, {-q64, 1<<32 - 1},
		}
		for range 200 {
			vals = append(vals, [2]uint64{rng.Uint64(), rng.Uint64() >> (32 + rng.Intn(33))})
		}
		var tally modTally
		tally.setModulus(q)
		var got, want limb32.Counts
		for _, v := range vals {
			acc := limb32.Nat{uint32(v[0]), uint32(v[0] >> 32), uint32(v[1])}
			rem := make(limb32.Nat, 1)
			limb32.Mod(rem, acc, limb32.Nat{q}, &want)
			if r := tally.reduce(v[:]); r != rem[0] {
				t.Fatalf("q=%d: %#x·2^64 + %#x reduces to %d, limb32.Mod %d", q, v[1], v[0], r, rem[0])
			}
		}
		tally.charge(&got)
		if got != want {
			t.Errorf("q=%d: tally %v, limb32.Mod charges %v", q, got, want)
		}
	}
}

// refVectorPolyMul is the per-product program VectorPolyMul simulates:
// every product through limb32.Mul (MulSchoolbook at W = 8) and
// accumAdd into the WRAM accumulators, at every width. Its DMAs, WRAM
// carve, instruction charges and reduction are the kernel's.
func refVectorPolyMul(l PolyMulLayout) pim.KernelFunc {
	return func(ctx *pim.TaskletCtx) error {
		n, w := l.N, l.W
		accW := 2*w + 1
		k0, k1 := pim.Partition(n, ctx.NumTasklets, ctx.TaskletID)
		if k0 >= k1 {
			return nil
		}
		K := k1 - k0
		tile := min((pim.WRAMWords-2*K*accW)/(4*w), n)
		if tile < 1 {
			return fmt.Errorf("WRAM exhausted")
		}
		wram, err := ctx.WRAM(2*K*accW + tile*w + (K+tile-1)*w + 4*w)
		if err != nil {
			return err
		}
		carve := func(words int) []uint32 {
			buf := wram[:words:words]
			wram = wram[words:]
			return buf
		}
		accPos, accNeg := carve(K*accW), carve(K*accW)
		aTile, bWin := carve(tile*w), carve((K+tile-1)*w)
		prod, rp, rn := limb32.Nat(carve(2*w)), limb32.Nat(carve(w)), limb32.Nat(carve(w))
		out := accPos[:K*w]
		m := ctx.Meter()
		for p := 0; p < l.Pairs; p++ {
			offA, offB := p*n*w, (l.Pairs+p)*n*w
			clear(accPos)
			clear(accNeg)
			for i0 := 0; i0 < n; i0 += tile {
				cnt := min(tile, n-i0)
				ctx.MRAMRead(offA+i0*w, aTile[:cnt*w])
				winLen := K + cnt - 1
				readWindow(ctx, offB, ((k0-i0-cnt+1)%n+n)%n, winLen, n, w, bWin)
				for i := i0; i < i0+cnt; i++ {
					for k := k0; k < k1; k++ {
						slot := k - k0 + i0 + cnt - 1 - i
						limb32.Mul(prod, aTile[(i-i0)*w:(i-i0+1)*w], bWin[slot*w:(slot+1)*w], m)
						acc := accPos
						if k < i {
							acc = accNeg
						}
						accumAdd(acc[(k-k0)*accW:(k-k0+1)*accW], prod, m)
					}
				}
				ctx.ChargeInstr(int64(3 * K * cnt))
			}
			for k := 0; k < K; k++ {
				limb32.Mod(rp, limb32.Nat(accPos[k*accW:(k+1)*accW]), l.Q[p], m)
				limb32.Mod(rn, limb32.Nat(accNeg[k*accW:(k+1)*accW]), l.Q[p], m)
				limb32.SubMod(limb32.Nat(out[k*w:(k+1)*w]), rp, rn, l.Q[p], m)
			}
			ctx.MRAMWrite((2*l.Pairs+p)*n*w+k0*w, out[:K*w])
		}
		return nil
	}
}

// polyMulOperands returns the operand shapes TestPolyMulMatchesPerProductKernel
// runs at width w, count coefficients each: uniform residues, zero,
// all-ones limbs and a mix of them; at W = 8 also centred lifts of 27-,
// 54- and 109-bit residues (both signs; σ a word and not), signed
// values around a word, and a-rows whose ripple against a negative b
// only b's lower words decide.
func polyMulOperands(t *testing.T, rng *rand.Rand, w, count int) map[string][2][]uint32 {
	mod := modulusFor(t, w)
	gen := func(f func(i int) *big.Int) []uint32 {
		out := make([]uint32, count*w)
		for i := 0; i < count; i++ {
			copy(out[i*w:], limbs(f(i), w))
		}
		return out
	}
	ones := new(big.Int).Sub(pow2(32*w), big.NewInt(1))
	uniform := func(int) *big.Int { return new(big.Int).Rand(rng, mod.QBig) }
	zero := func(int) *big.Int { return new(big.Int) }
	allOnes := func(int) *big.Int { return ones }
	mixed := func(i int) *big.Int {
		switch rng.Intn(3) {
		case 0:
			return new(big.Int)
		case 1:
			return ones
		}
		return uniform(i)
	}
	shapes := map[string][2][]uint32{
		"uniform":      {gen(uniform), gen(uniform)},
		"zero a":       {gen(zero), gen(uniform)},
		"all-ones":     {gen(allOnes), gen(allOnes)},
		"mixed limbs":  {gen(mixed), gen(mixed)},
		"all-ones × 0": {gen(allOnes), gen(zero)},
	}
	if w != 8 {
		return shapes
	}
	centred := func(bits int) func(int) *big.Int {
		small := modulusFor(t, bits).QBig
		half := new(big.Int).Rsh(small, 1)
		return func(int) *big.Int {
			c := new(big.Int).Rand(rng, small)
			if c.Cmp(half) > 0 {
				c.Add(c.Sub(c, small), mod.QBig)
			}
			return c
		}
	}
	for _, c := range []struct {
		name string
		w    int
	}{{"centred27", 1}, {"centred54", 2}, {"centred109", 4}} {
		f := centred(c.w)
		shapes[c.name] = [2][]uint32{gen(f), gen(f)}
	}
	vals := signedValues(rng)
	signed := func(int) *big.Int { return vals[rng.Intn(len(vals))].v }
	shapes["signed words"] = [2][]uint32{gen(signed), gen(signed)}
	undecided := func(int) *big.Int { // a_r = 1 over a zero limb: h_r = 2³²
		r := rng.Intn(8)
		v := pow2(32 * r)
		if r >= 2 && rng.Intn(2) == 0 {
			v.Add(v, new(big.Int).Rand(rng, pow2(32*(r-1))))
		}
		return v
	}
	negative := func(int) *big.Int {
		return new(big.Int).Sub(pow2(256), new(big.Int).Add(big.NewInt(1), new(big.Int).Rand(rng, pow2(1+rng.Intn(200)))))
	}
	shapes["undecided band × negative"] = [2][]uint32{gen(undecided), gen(negative)}
	return shapes
}

// TestPolyMulMatchesPerProductKernel holds VectorPolyMul to
// refVectorPolyMul, the per-product program it simulates: the same
// outputs and the same simulated figures — per-class counts, priced
// instructions, DMA cycles and critical-path cycles — at every width,
// 1, 3, 16 and 24 tasklets (some owning no outputs, or a share K that
// does not divide n), n = 16, 64 and 256, and on random and
// adversarial operands. Three pairs on two DPUs: one DPU runs two pairs
// in one launch. At one limb the pairs also run with a modulus each —
// the residue products of a PIM Mul's tensor — so a DPU's launch
// reduces its two pairs by different primes.
func TestPolyMulMatchesPerProductKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(4701))
	ns := []int{16, 64, 256}
	if testing.Short() {
		ns = ns[:2]
	}
	const pairs = 3
	topo := pimsched.FitTopology(2)
	type moduli struct {
		name string
		mods []limb32.Nat
	}
	for _, w := range []int{1, 2, 4, 8} {
		q := modulusFor(t, w).Q
		sets := []moduli{{"", slices.Repeat([]limb32.Nat{q}, pairs)}}
		if w == 1 {
			sets = append(sets, moduli{" a modulus per pair", []limb32.Nat{{2147483647}, q, {2147483587}}})
		}
		for _, n := range ns {
			for name, ops := range polyMulOperands(t, rng, w, pairs*n) {
				for _, set := range sets {
					for _, tasklets := range []int{1, 3, 16, 24} {
						label := fmt.Sprintf("w%d n=%d %s%s tasklets=%d", w, n, name, set.name, tasklets)
						got, rep, err := RunVectorPolyMulModsSched(testSched(t, topo, tasklets), ops[0], ops[1], n, w, set.mods)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						want, ref, err := runPlan(testSched(t, topo, tasklets), [][]uint32{ops[0], ops[1]}, n*w, func(first, cnt int) pim.KernelFunc {
							return refVectorPolyMul(PolyMulLayout{W: w, N: n, Pairs: cnt, Q: set.mods[first : first+cnt]})
						})
						if err != nil {
							t.Fatalf("%s: reference: %v", label, err)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s: limb %d = %#x, per-product kernel %#x", label, i, got[i], want[i])
							}
						}
						if rep.Counts != ref.Counts || rep.TotalInstr != ref.TotalInstr ||
							rep.TotalDMACycles != ref.TotalDMACycles || rep.KernelCycles != ref.KernelCycles {
							t.Fatalf("%s: counts %v instr/dma/cycles %d/%d/%d, per-product kernel %v %d/%d/%d", label,
								rep.Counts, rep.TotalInstr, rep.TotalDMACycles, rep.KernelCycles,
								ref.Counts, ref.TotalInstr, ref.TotalDMACycles, ref.KernelCycles)
						}
					}
				}
			}
		}
	}
}

// TestVectorPolyMulReadsItsMRAMEachLaunch launches one VectorPolyMul
// program twice on a DPU whose MRAM is rewritten in between: the values
// of every launch come from the operands the DPU holds at that launch,
// not from a copy taken earlier or from anywhere else.
func TestVectorPolyMulReadsItsMRAMEachLaunch(t *testing.T) {
	rng := rand.New(rand.NewSource(4702))
	for _, w := range []int{1, 2, 4, 8} {
		mod := modulusFor(t, w)
		const n, pairs = 32, 2
		words := pairs * n * w
		cfg := pim.DefaultConfig()
		cfg.NumDPUs, cfg.Tasklets = 1, 4
		sys, err := pim.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		kernel := VectorPolyMul(PolyMulLayout{W: w, N: n, Pairs: pairs, Q: slices.Repeat([]limb32.Nat{mod.Q}, pairs)})
		for launch := 0; launch < 2; launch++ {
			a, b := randVec(rng, pairs*n, mod), randVec(rng, pairs*n, mod)
			if err := sys.CopyToDPU(0, 0, append(append([]uint32(nil), a...), b...)); err != nil {
				t.Fatal(err)
			}
			if err := sys.DPUs[0].EnsureMRAM(3 * words); err != nil {
				t.Fatal(err)
			}
			if _, errs := sys.LaunchOn([]int{0}, []pim.KernelFunc{kernel}); errs[0] != nil {
				t.Fatal(errs[0])
			}
			got := make([]uint32, words)
			if err := sys.CopyFromDPU(0, 2*words, got); err != nil {
				t.Fatal(err)
			}
			want := hostPolyMul(t, a, b, n, mod)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("w%d launch %d: limb %d = %#x, want %#x", w, launch, i, got[i], want[i])
				}
			}
		}
	}
}
