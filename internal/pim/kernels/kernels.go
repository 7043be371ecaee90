// Package kernels contains the DPU programs of the paper's §3: polynomial
// (vector) addition and negacyclic polynomial multiplication over 32-, 64-
// and 128-bit coefficients, written against the pim simulator's tasklet
// API. A PIM Mul's tensor products run at 32 bits, as products of
// residues modulo primes below 2³¹, one modulus per pair
// (RunVectorPolyMulModsSched); the product kernel also takes up to 256-bit
// coefficients, which only the benchmark's traced kernel row runs.
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
//   - the add kernel (VectorSum; a vector addition is the sum of two),
//     at every width it takes (up to 4 limbs), folds the DPU's shard in
//     one streaming pass of 128-bit word additions (fold) that also
//     counts what each coefficient's additions charge (addTally);
//   - the product kernel, at every width, computes each pair's values
//     as an exact convolution (conv.go) and each tasklet's tally from
//     counts over the words it DMA'd (productTally): O(n log n) host
//     work per pair for the values of a program that makes n²
//     products. The tally at 4 and 8 limbs still forms each product,
//     through limb32.Mul, because the carries of Karatsuba and of the
//     schoolbook rows there depend on the data. At one limb each output
//     is also reduced from its convolution words, with limb32.Mod's
//     tally counted (modTally).
//
// The tasklet programs live in sum.go, kernels.go and nttkernel.go; the
// host side is sched.go, where each driver compiles a shard plan (a
// Plan, run as often as asked) executed by internal/pimsched — the
// package holds no placement, retry or transfer-pricing logic of its
// own.
package kernels

import (
	"fmt"
	"math/bits"

	"repro/internal/limb32"
	"repro/internal/pim"
)

// PolyMulLayout describes one DPU's shard of a ciphertext vector
// multiplication: Pairs polynomial pairs of degree N with W-limb
// coefficients, W ≤ 8, in the plan's MRAM layout. Polynomial p's
// operands live at p·N·W and (Pairs+p)·N·W; the product, reduced by the
// W-limb modulus Q[p], goes to (2·Pairs+p)·N·W.
type PolyMulLayout struct {
	W     int
	N     int
	Pairs int
	Q     []limb32.Nat
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
// The host does not form those products one by one. At every width
// (W ≤ 8) it splits them in two, each exactly what the per-product
// program — limb32.Mul followed by accumAdd — computes and charges:
//
//   - the values: the first of the DPU's tasklets to run in a launch
//     convolves every pair once, exactly, from the DPU's MRAM
//     (convPlan.convolve) into words the DPU owns for the launch
//     (TaskletCtx.LaunchWords), and each tasklet copies its outputs'
//     two sums into its accumulators before the reduction;
//   - the tally: productTally counts the products over the tiles the
//     tasklet DMA'd, and the tasklet charges their tally once.
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
		tally := productTally{w: w, prod: prod}
		var mods modTally

		for p := 0; p < l.Pairs; p++ {
			offA, offB := p*n*w, (l.Pairs+p)*n*w
			for i0 := 0; i0 < n; i0 += tile {
				cnt := min(tile, n-i0)
				ctx.MRAMRead(offA+i0*w, aTile[:cnt*w])

				// b indices needed: j = (k−i) mod n for k∈[k0,k1), i∈[i0,i0+cnt)
				// — a contiguous window of length K+cnt−1 starting at
				// (k0−i0−cnt+1) mod n. Read it with at most two DMAs (wrap).
				winLen := K + cnt - 1
				winStart := ((k0-i0-cnt+1)%n + n) % n
				readWindow(ctx, offB, winStart, winLen, n, w, bWin)

				tally.tile(aTile[:cnt*w], bWin[:winLen*w], K)
				ctx.ChargeInstr(int64(3 * K * cnt)) // per product: index arithmetic + wrap test + branch
			}
			c, q := conv[p*2*n*cw:(p+1)*2*n*cw], l.Q[p]
			if w == 1 {
				mods.setModulus(q[0])
			}
			// Reduce the two sums of each output mod q and write the
			// shard's outputs: at one limb straight from their words, at
			// other widths from the accumulators they are unpacked into.
			for k := 0; k < K; k++ {
				if w == 1 {
					rp[0] = mods.reduce(c[(k0+k)*cw:])
					rn[0] = mods.reduce(c[(n+k0+k)*cw:])
				} else {
					pos, neg := accPos[k*accW:(k+1)*accW], accNeg[k*accW:(k+1)*accW]
					unpackLimbs(pos, c[(k0+k)*cw:])
					unpackLimbs(neg, c[(n+k0+k)*cw:])
					limb32.Mod(rp, limb32.Nat(pos), q, m)
					limb32.Mod(rn, limb32.Nat(neg), q, m)
				}
				limb32.SubMod(limb32.Nat(out[k*w:(k+1)*w]), rp, rn, q, m)
			}
			ctx.MRAMWrite((2*l.Pairs+p)*n*w+k0*w, out[:K*w])
		}
		tally.charge(m)
		mods.charge(m)
		return nil
	}
}

// A modTally reduces one-limb outputs' sums at word speed and counts
// what limb32.Mod charges for them. Mod by a one-limb q compares one
// limb (OpLogic) when the sum is below q, and otherwise divides the
// sum's limbs one by one (OpMul32 and OpLoop per limb of its trimmed
// length).
type modTally struct {
	q, m, r64    uint64 // the pair's modulus, ⌊2⁶⁴/q⌋ and 2⁶⁴ mod q
	below, limbs int
}

// setModulus makes q the modulus of the reductions that follow.
func (t *modTally) setModulus(q uint32) {
	t.q = uint64(q)
	t.m, t.r64 = bits.Div64(1, 0, t.q)
}

// reduce returns the sum in convolution words c[0:2], below 2⁹⁶, mod q
// and counts its limb32.Mod.
func (t *modTally) reduce(c []uint64) uint32 {
	lo, hi := c[0], c[1]
	if hi == 0 && lo < t.q {
		t.below++
		return uint32(lo)
	}
	l := bits.Len64(lo)
	if hi != 0 {
		l = 64 + bits.Len64(hi)
	}
	t.limbs += (l + 31) / 32
	// The sum ≡ hi·(2⁶⁴ mod q) + lo; hi < 2³² keeps the product below
	// 2⁶⁴, and a carry out of the sum folds back once. Barrett's
	// quotient by ⌊2⁶⁴/q⌋ is at most one short.
	y, c0 := bits.Add64(hi*t.r64, lo, 0)
	y += c0 * t.r64
	qh, _ := bits.Mul64(y, t.m)
	r := y - qh*t.q
	if r >= t.q {
		r -= t.q
	}
	return uint32(r)
}

// charge charges m the counted reductions' tally.
func (t *modTally) charge(m limb32.Meter) {
	m.Tick(limb32.OpLogic, t.below)
	m.Tick(limb32.OpMul32, t.limbs)
	m.Tick(limb32.OpLoop, t.limbs)
}

// pairProducts returns every pair's exact plain product for the launch,
// convWords(W) words per coefficient and 2N coefficients per pair. The
// DPU's first tasklet of the launch computes them from the operands in
// its MRAM; the tasklets after it find them in the DPU's launch words.
func pairProducts(ctx *pim.TaskletCtx, l PolyMulLayout) ([]uint64, error) {
	n, w := l.N, l.W
	plan, err := convPlanFor(n)
	if err != nil {
		return nil, err
	}
	per := 2 * n * convWords(w)
	words, fresh := ctx.LaunchWords(l.Pairs*per + plan.scratchWords(w))
	conv, scratch := words[:l.Pairs*per], words[l.Pairs*per:]
	if fresh {
		for p := 0; p < l.Pairs; p++ {
			a := ctx.MRAMView(p*n*w, n*w)
			b := ctx.MRAMView((l.Pairs+p)*n*w, n*w)
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

// A productTally counts, for the products a tasklet makes, what
// limb32.Mul followed by accumAdd would charge for each, and charges the
// total once; a tally is order-free, so this changes no figure.
// accumAdd's 2W-limb addc chain is the same for every product, and so
// is limb32.Mul's tally at W = 1 (one multiply) and W = 2 (karatsuba2,
// straight-line code): one product's tally times the product count. At
// W = 4 and 8, where karatsuba4's carries and MulSchoolbook's skipped
// rows and carries depend on the data, the tally forms each product
// with limb32.Mul into prod, for its tally alone.
type productTally struct {
	w        int
	prod     limb32.Nat    // 2W limbs of scratch for the products formed to be counted
	products int           // products made
	mul      limb32.Counts // limb32.Mul's tally of the products formed (W ∉ {1, 2})
}

// tile counts the products of one tile: each coefficient of aTile — a_i,
// i = i0+cnt−1−s — times the K coefficients bWin[s, s+K) that the
// tasklet's outputs read for it.
func (t *productTally) tile(aTile, bWin []uint32, K int) {
	w := t.w
	cnt := len(aTile) / w
	t.products += cnt * K
	if w <= 2 {
		return // charge scales one product's tally
	}
	for s := 0; s < cnt; s++ {
		a := aTile[w*(cnt-1-s) : w*(cnt-s)]
		for j := s; j < s+K; j++ {
			limb32.Mul(t.prod, a, bWin[w*j:w*(j+1)], &t.mul)
		}
	}
}

// charge charges m the tally of every product counted: limb32.Mul's —
// one product's times the count at W = 1 and 2, the formed products'
// otherwise — and accumAdd's 2W loads, 2W+1 addc (the last into the
// accumulator's top limb), 2W stores and 2W loop trips for each.
func (t *productTally) charge(m limb32.Meter) {
	c, w := t.products, t.w
	if w <= 2 {
		var zero [2]uint32
		var one limb32.Counts
		limb32.Mul(t.prod, zero[:w], zero[:w], &one)
		for op, v := range one {
			m.Tick(limb32.Op(op), c*int(v))
		}
	} else {
		m.Add(&t.mul)
	}
	m.Tick(limb32.OpLoad, 2*w*c)
	m.Tick(limb32.OpAddC, (2*w+1)*c)
	m.Tick(limb32.OpStore, 2*w*c)
	m.Tick(limb32.OpLoop, 2*w*c)
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
