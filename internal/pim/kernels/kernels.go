// Package kernels contains the DPU programs of the paper's §3: polynomial
// (vector) addition and negacyclic polynomial multiplication over 32-, 64-
// and 128-bit coefficients (and the 256-bit lift a PIM Mul's tensor
// products run under), written against the pim simulator's tasklet API.
// Each kernel is the direct analogue of the UPMEM C code the paper
// describes: WRAM tiles staged by DMA, add/addc chains for wide addition,
// schoolbook products (Karatsuba for 64- and 128-bit coefficients)
// accumulated at full width and reduced once by limb32.Mod.
//
// The host simulates each kernel's arithmetic without ticking the
// tally instruction by instruction, while charging each tasklet exactly
// what its own program would. Where a workload runs a kernel hot, the
// host computes the launch's values once per DPU, from the DPU's MRAM
// into words the DPU owns for the launch, and each tasklet charges its
// DMAs and its tally from counts:
//
//   - the add kernel (VectorSum; a vector addition is the sum of two) at
//     4 limbs, the width every PIM Sum runs, folds the DPU's shard in
//     one streaming pass (foldW4) that also counts what each
//     coefficient's additions charge (addTally);
//   - the product kernel, at 1 limb (key switching at 27 bits) and at 8
//     (the lift every PIM Mul's tensor runs under), computes each pair's
//     values as an exact convolution (conv.go) and each tasklet's tally
//     from counts over the words it DMA'd (productTally): O(n log n)
//     host work per pair for a program that makes n² products.
//
// Other widths call limb32 itself.
//
// The tasklet programs live in sum.go, kernels.go and nttkernel.go; the
// host side is sched.go, where each Run*Sched driver is a shard plan
// executed by internal/pimsched — the package holds no placement, retry
// or transfer-pricing logic of its own.
package kernels

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/limb32"
	"repro/internal/pim"
)

// PolyMulLayout describes one DPU's shard of a ciphertext vector
// multiplication: Pairs polynomial pairs of degree N with W-limb
// coefficients. Polynomial p's operands live at OffA+p·N·W and
// OffB+p·N·W; the product goes to OffOut+p·N·W.
type PolyMulLayout struct {
	W      int
	N      int
	Pairs  int
	OffA   int
	OffB   int
	OffOut int
	Q      limb32.Nat
}

// VectorPolyMul returns the tasklet program computing, for every pair,
// the negacyclic product a·b mod (Xᴺ+1, q) by schoolbook multiplication —
// the paper's §3 "Homomorphic Multiplication" kernel: 32-bit products use
// the compiler's shift-and-add multiply; 64- and 128-bit coefficients are
// split into 32-bit chunks combined with Karatsuba.
//
// Tasklets split the output coefficients of each pair. Operand data is
// staged through WRAM tiles; accumulation happens in WRAM at full
// 2W+1-limb precision, with a single modular reduction per output
// coefficient.
//
// The tasklet walks a tile one a-coefficient at a time: for coefficient
// i its outputs k read b_(k−i) mod n from consecutive slots of the
// b-window, and split at k = i into the products that wrap past Xᴺ
// (k < i, into accNeg) and the rest (into accPos). So accPos_k ends as
// pos_k = Σ_{i≤k} a_i·b_(k−i) and accNeg_k as neg_k = Σ_{i>k} a_i·b_(n+k−i),
// coefficients k and n+k of the pair's plain integer product.
//
// At W = 1 and W = 8 — a Mul's key switch at 27 bits and its tensor
// under the 256-bit lift — the host does not form those products one by
// one. It splits them in two, each exactly what the per-product program
// computes and charges:
//
//   - the values: the first of the DPU's tasklets to run in a launch
//     convolves every pair once, exactly, from the DPU's MRAM
//     (convPlan.convolve) into words the DPU owns for the launch
//     (TaskletCtx.LaunchWords), and each tasklet copies its outputs'
//     two sums into its accumulators before the reduction;
//   - the tally: what limb32.Mul followed by accumAdd would charge for
//     each product is linear in counts that productTally takes from the
//     tiles the tasklet DMA'd, and the tasklet charges it once.
//
// At W = 2 and W = 4 each product goes through limb32.Mul and accumAdd
// (mulRun): Karatsuba's tally depends on the data.
func VectorPolyMul(l PolyMulLayout) pim.KernelFunc {
	return func(ctx *pim.TaskletCtx) error {
		n, w := l.N, l.W
		accW := 2*w + 1
		k0, k1 := pim.Partition(n, ctx.NumTasklets, ctx.TaskletID)
		if k0 >= k1 {
			return nil
		}
		K := k1 - k0

		// WRAM budget: accumulators (pos+neg), an a-tile, and a b-window.
		tile := (pim.WRAMWords - 2*K*accW) / (4 * w)
		if tile < 1 {
			return fmt.Errorf("kernels: WRAM exhausted (N=%d W=%d tasklets=%d)", n, w, ctx.NumTasklets)
		}
		if tile > n {
			tile = n
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
		accPos := carve(K * accW)
		accNeg := carve(K * accW)
		aTile := carve(tile * w)
		bWin := carve((K + tile - 1) * w)
		prod := limb32.Nat(carve(2 * w))
		rp := limb32.Nat(carve(w))
		rn := limb32.Nat(carve(w))
		// The reduced outputs overwrite the low end of accPos: output k
		// ends at (k+1)·w ≤ k·accW for k ≥ 1, below accumulator k, and by
		// the time it is written accumulators 0..k have been reduced.
		out := accPos[:K*w]
		m := ctx.Meter()
		conv, err := pairProducts(ctx, l)
		if err != nil {
			return err
		}
		cw := convWords(w)
		var tally productTally

		for p := 0; p < l.Pairs; p++ {
			offA := l.OffA + p*n*w
			offB := l.OffB + p*n*w
			clear(accPos)
			clear(accNeg)

			for i0 := 0; i0 < n; i0 += tile {
				cnt := min(tile, n-i0)
				ctx.MRAMRead(offA+i0*w, aTile[:cnt*w])

				// b indices needed: j = (k−i) mod n for k∈[k0,k1), i∈[i0,i0+cnt)
				// — a contiguous window of length K+cnt−1 starting at
				// (k0−i0−cnt+1) mod n. Read it with at most two DMAs (wrap).
				winLen := K + cnt - 1
				winStart := ((k0-i0-cnt+1)%n + n) % n
				readWindow(ctx, offB, winStart, winLen, n, w, bWin)

				if conv != nil {
					tally.tile(aTile[:cnt*w], bWin[:winLen*w], K, w)
				} else {
					for i := i0; i < i0+cnt; i++ {
						// Output k reads window slot k−k0 + i0+cnt−1−i, which
						// holds b_(k−i) mod n.
						ai := aTile[(i-i0)*w : (i-i0+1)*w]
						bi := bWin[(i0+cnt-1-i)*w : (i0+cnt-1-i+K)*w]
						split := min(max(i-k0, 0), K)
						mulRun(accNeg[:split*accW], ai, bi[:split*w], prod, m)
						mulRun(accPos[split*accW:], ai, bi[split*w:], prod, m)
					}
				}
				ctx.ChargeInstr(int64(3 * K * cnt)) // per product: index arithmetic + wrap test + branch
			}
			if conv != nil {
				c := conv[p*2*n*cw : (p+1)*2*n*cw]
				for k := 0; k < K; k++ {
					unpackLimbs(accPos[k*accW:(k+1)*accW], c[(k0+k)*cw:])
					unpackLimbs(accNeg[k*accW:(k+1)*accW], c[(n+k0+k)*cw:])
				}
			}

			// Reduce accumulators mod q and write the shard's outputs.
			for k := 0; k < K; k++ {
				pos, neg := accPos[k*accW:(k+1)*accW], accNeg[k*accW:(k+1)*accW]
				limb32.Mod(rp, limb32.Nat(pos), l.Q, m)
				limb32.Mod(rn, limb32.Nat(neg), l.Q, m)
				limb32.SubMod(limb32.Nat(out[k*w:(k+1)*w]), rp, rn, l.Q, m)
			}
			ctx.MRAMWrite(l.OffOut+p*n*w+k0*w, out[:K*w])
		}
		if conv != nil {
			tally.charge(m, w)
		}
		return nil
	}
}

// pairProducts returns, at W = 1 and W = 8, every pair's exact plain
// product for the launch, convWords(W) words per coefficient and 2N
// coefficients per pair; at other widths it returns nil. The DPU's
// first tasklet of the launch computes them from the operands in its
// MRAM; the tasklets after it find them in the DPU's launch words.
func pairProducts(ctx *pim.TaskletCtx, l PolyMulLayout) ([]uint64, error) {
	n, w := l.N, l.W
	if w != 1 && w != 8 {
		return nil, nil
	}
	plan, err := convPlanFor(n)
	if err != nil {
		return nil, err
	}
	per := 2 * n * convWords(w)
	words, fresh := ctx.LaunchWords(l.Pairs*per + plan.scratchWords(w))
	conv, scratch := words[:l.Pairs*per], words[l.Pairs*per:]
	if fresh {
		for p := 0; p < l.Pairs; p++ {
			a := ctx.MRAMView(l.OffA+p*n*w, n*w)
			b := ctx.MRAMView(l.OffB+p*n*w, n*w)
			plan.convolve(conv[p*per:(p+1)*per], scratch, a, b, w)
		}
	}
	return conv, nil
}

// unpackLimbs sets the limbs acc from words c, two limbs to a word, low
// limb first.
func unpackLimbs(acc []uint32, c []uint64) {
	for i := range acc {
		acc[i] = uint32(c[i/2] >> (32 * (i % 2)))
	}
}

// mulRun adds a·b_t into accumulator t for every W-limb coefficient b_t
// of b, through limb32.Mul into the 2W-limb scratch prod and accumAdd,
// which charge m each product's tally: the product body at W = 2 and
// W = 4.
func mulRun(acc, a, b []uint32, prod limb32.Nat, m limb32.Meter) {
	w := len(a)
	accW := 2*w + 1
	for t := 0; t < len(acc)/accW; t++ {
		limb32.Mul(prod, a, b[t*w:(t+1)*w], m)
		accumAdd(acc[t*accW:(t+1)*accW], prod, m)
	}
}

// A productTally counts, for the products a tasklet makes at W = 1 or
// W = 8, what limb32.Mul followed by accumAdd would charge for each,
// and charges the total once; a tally is order-free, so this changes no
// figure.
//
// At W = 1 that is a constant per product. At W = 8 it is
// limb32.MulSchoolbook's, fixed per product by a's nonzero limbs (its
// rows: a zero limb's row is skipped) plus a load, an addc and a store
// for each row that ripples a carry past its end, and accumAdd's
// 16-limb chain. Row r of a·b ripples exactly when the prefix product
// A_r·b, A_r = a mod 2^(32(r+1)), reaches 2^(32(r+8)): before row r the
// running product is below that, so the row's carry out is exactly limb
// r+8 of the product after it, which takes it without carrying on.
type productTally struct {
	products int // products made
	rows     int // Σ over the products of a's nonzero limbs (W = 8)
	ripples  int // Σ over the products of the rows that ripple (W = 8)
}

// tile counts the products of one tile: each coefficient of aTile — a_i,
// i = i0+cnt−1−s — times the K coefficients bWin[s, s+K) that the
// tasklet's outputs read for it.
//
// At W = 8 a product's ripples are read off b's top word b₃: a b with
// b₃ = 0 is below 2¹⁹² and never ripples (A_r·b < 2^(32r+224)), and
// against b₃ = 2⁶⁴−1 rowRipple decides each of a's rows once, for every
// such b in the window at once. Sliding the window one slot per a keeps
// that count in step. Every lifted centred coefficient has b₃ = 0 or
// 2⁶⁴−1; only a product with any other b₃, or with a row rowRipple
// leaves undecided, is counted on its own (ripples8).
func (t *productTally) tile(aTile, bWin []uint32, K, w int) {
	cnt := len(aTile) / w
	t.products += cnt * K
	if w != 8 {
		return
	}
	// class reports whether window slot s has b₃ = 2⁶⁴−1, or b₃ ∉ {0, 2⁶⁴−1}.
	class := func(s int) (ones, other int) {
		switch uint64(bWin[8*s+6]) | uint64(bWin[8*s+7])<<32 {
		case 0:
			return 0, 0
		case math.MaxUint64:
			return 1, 0
		}
		return 0, 1
	}
	ones, others := 0, 0
	for s := 0; s < K; s++ {
		o, x := class(s)
		ones, others = ones+o, others+x
	}
	for s := 0; s < cnt; s++ {
		if s > 0 {
			o, x := class(s - 1)
			ones, others = ones-o, others-x
			o, x = class(s + K - 1)
			ones, others = ones+o, others+x
		}
		a := aTile[8*(cnt-1-s) : 8*(cnt-s)]
		rows, rip, undecided := rowsOf(a)
		t.rows += K * rows
		if others == 0 && !undecided {
			t.ripples += ones * rip
			continue
		}
		for j := s; j < s+K; j++ {
			switch o, x := class(j); {
			case o == 1 && !undecided:
				t.ripples += rip
			case o == 1 || x == 1:
				t.ripples += ripples8(a, bWin[8*j:8*j+8])
			}
		}
	}
}

// charge charges m the tally of every product counted: at W = 1
// limb32.Mul's two loads, multiply and two stores and accumAdd's
// two-limb addc chain (two loads, three addc with the top limb, two
// stores, two loop trips); at W = 8 MulSchoolbook's rows, steps and
// ripples and accumAdd's 16 loads, 17 addc, 16 stores and 16 loop trips.
func (t *productTally) charge(m limb32.Meter, w int) {
	c := t.products
	if w == 1 {
		m.Tick(limb32.OpLoad, 4*c)
		m.Tick(limb32.OpMul32, c)
		m.Tick(limb32.OpAddC, 3*c)
		m.Tick(limb32.OpStore, 4*c)
		m.Tick(limb32.OpLoop, 2*c)
		return
	}
	rows, rip := t.rows, t.ripples
	skipped, steps := 8*c-rows, 8*rows
	m.Tick(limb32.OpLoad, skipped+3*steps+16*c+rip)
	m.Tick(limb32.OpMul32, steps)
	m.Tick(limb32.OpAdd, steps)
	m.Tick(limb32.OpAddC, 2*steps+17*c+rip)
	m.Tick(limb32.OpStore, steps+16*c+rip)
	m.Tick(limb32.OpLoop, skipped+steps+rows+16*c)
}

// rowsOf returns the 8-limb a's nonzero limbs — its schoolbook rows —
// and, against a b whose top word is 2⁶⁴−1, how many of them rowRipple
// says ripple and whether it leaves any undecided.
func rowsOf(a []uint32) (rows, ripples int, undecided bool) {
	var prev uint64
	for _, ar := range a[:8] {
		if ar != 0 {
			rows++
			rip, sure := rowRipple(uint64(ar)<<32|prev, math.MaxUint64)
			if rip {
				ripples++
			}
			undecided = undecided || !sure
		}
		prev = uint64(ar)
	}
	return rows, ripples, undecided
}

// ripples8 returns how many rows of the 8-limb product a·b ripple:
// rowRipple decides each row from b's top word where it can, and a
// product with a row it leaves undecided is formed limb by limb, as
// MulSchoolbook forms it.
func ripples8(a, b []uint32) int {
	b3 := uint64(b[6]) | uint64(b[7])<<32
	n := 0
	var prev uint64
	for _, ar := range a[:8] {
		if ar != 0 {
			rip, sure := rowRipple(uint64(ar)<<32|prev, b3)
			if !sure {
				return walkRipples8(a, b)
			}
			if rip {
				n++
			}
		}
		prev = uint64(ar)
	}
	return n
}

// walkRipples8 forms a·b row by row and counts the rows whose carry out
// is nonzero.
func walkRipples8(a, b []uint32) int {
	var d [16]uint32
	n := 0
	for r, ar := range a[:8] {
		if ar == 0 {
			continue
		}
		var c uint64
		for j, bj := range b[:8] {
			s := uint64(d[r+j]) + uint64(ar)*uint64(bj) + c
			d[r+j], c = uint32(s), s>>32
		}
		d[r+8] = uint32(c) // limb r+8 was zero: the prefix product is below 2^(32(r+8))
		if c != 0 {
			n++
		}
	}
	return n
}

// rowRipple decides whether schoolbook row r of a·b ripples, from
// h = ⌊A_r / 2^(32r−32)⌋ = a_r·2³² + a_(r−1) (a_(−1) = 0; 2³² ≤ h < 2⁶⁴
// for a nonzero a_r) and b's top word b₃. A_r lies in
// [h, h+1)·2^(32r−32) and b in [b₃, b₃+1)·2¹⁹², so the row ripples
// when b₃ > ⌊(2⁹⁶−1)/h⌋, i.e. b₃·h ≥ 2⁹⁶, and cannot when
// b₃ < ⌊2⁹⁶/(h+1)⌋, i.e. (b₃+1)(h+1) ≤ 2⁹⁶. Between the two thresholds
// b's lower words decide, and sure is false.
func rowRipple(h, b3 uint64) (ripples, sure bool) {
	hi, lo := bits.Mul64(b3, h)
	if hi >= 1<<32 {
		return true, true
	}
	// (b₃+1)(h+1) = b₃h + b₃ + h + 1, below 2⁹⁶ + 2⁶⁶ here.
	var c uint64
	lo, c = bits.Add64(lo, b3, 0)
	hi += c
	lo, c = bits.Add64(lo, h, 0)
	hi += c
	lo, c = bits.Add64(lo, 1, 0)
	hi += c
	return false, hi < 1<<32 || hi == 1<<32 && lo == 0
}

// readWindow reads winLen coefficients of width w starting at circular
// coefficient index start (mod n) from the polynomial at MRAM offset
// base, handling the wraparound with a second DMA.
func readWindow(ctx *pim.TaskletCtx, base, start, winLen, n, w int, dst []uint32) {
	first := winLen
	if start+first > n {
		first = n - start
	}
	ctx.MRAMRead(base+start*w, dst[:first*w])
	if first < winLen {
		ctx.MRAMRead(base, dst[first*w:winLen*w])
	}
}

// accumAdd adds a 2w-limb product into a (2w+1)-limb accumulator with an
// addc chain, charging the tasklet.
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
