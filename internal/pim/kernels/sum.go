package kernels

import (
	"math/bits"

	"repro/internal/limb32"
	"repro/internal/pim"
)

// VecSumLayout describes one DPU's shard of an element-wise modular sum
// over M vectors of Coeffs coefficients with W ≤ 4 limbs each, in the
// plan's MRAM layout: vector v's shard at v·Coeffs·W, the output at
// M·Coeffs·W. A vector addition is the sum of M = 2.
type VecSumLayout struct {
	W      int
	Coeffs int
	M      int
	Q      limb32.Nat
}

// VectorSum returns the tasklet program computing
// out[i] = Σ_v vec_v[i] mod q — homomorphic addition on the PIM cores
// (paper §3) and the reduction at the heart of its arithmetic-mean
// workload, the final scalar division staying on the host. Each tasklet
// owns a run of coefficients and walks it a tile at a time: it DMAs
// vector 0's tile into an accumulator, folds in every other vector's
// tile with add/addc chains reduced by one compare and subtract, and
// DMAs the accumulator out.
//
// The host does not walk that program tasklet by tasklet. The first of
// the DPU's tasklets to run in a launch folds the DPU's whole shard
// once, streaming its MRAM a vector at a time (fold), into words the
// DPU owns for the launch (TaskletCtx.LaunchWords): each coefficient's
// sum and the counts its additions' tally depends on. Each tasklet then
// charges the DMAs and instructions of its own tiles, copies its
// coefficients' sums into its accumulator and charges their tally once
// (addTally) — what its program charges, so every figure is the
// per-tasklet program's.
func VectorSum(l VecSumLayout) pim.KernelFunc {
	return func(ctx *pim.TaskletCtx) error {
		start, end := pim.Partition(l.Coeffs, ctx.NumTasklets, ctx.TaskletID)
		if start >= end {
			return nil
		}
		// Three tiles of coefficients fill a quarter of WRAM, the size
		// every simulated add figure was pinned at; WRAM holds two, the
		// accumulator and the buffer the program DMAs each other vector
		// into.
		w := l.W
		tile := max(1, min(pim.WRAMWords/4/(3*w), end-start))
		wram, err := ctx.WRAM(2 * tile * w)
		if err != nil {
			return err
		}
		acc := wram[:tile*w]
		sums := foldedSums(ctx, l)
		tally := addTally{w: w}
		for c := start; c < end; c += tile {
			cnt := min(tile, end-c)
			ctx.MRAMRead(c*w, acc[:cnt*w]) // vector 0 seeds the accumulator
			ctx.ChargeDMA(l.M-1, 4*cnt*w)
			ctx.ChargeInstr(int64(2 * cnt * (l.M - 1))) // per coefficient and vector: loop index + branch
			tally.take(acc[:cnt*w], sums[3*c:3*(c+cnt)], l.M-1)
			ctx.MRAMWrite((l.M*l.Coeffs+c)*w, acc[:cnt*w])
		}
		tally.charge(ctx.Meter())
		return nil
	}
}

// foldedSums returns three words per coefficient of the DPU's shard as
// fold leaves them. The DPU's first tasklet of the launch folds them
// from its MRAM; the tasklets after it find them in the DPU's launch
// words.
func foldedSums(ctx *pim.TaskletCtx, l VecSumLayout) []uint64 {
	words, fresh := ctx.LaunchWords(3 * l.Coeffs)
	if fresh {
		fold(words, ctx.MRAMView(0, l.M*l.Coeffs*l.W), l.W, l.Coeffs, l.Q)
	}
	return words
}

// fold sums the vectors of w-limb coefficients in in — vector v's
// coefficient c at in[w(v·coeffs+c):] — coefficient-wise mod q, in the
// order each tasklet adds them: vector 0 seeds the sum and every later
// vector is added with limb32.AddMod's reduction. It streams in in
// order, vector outer and coefficient inner, so the coeffs add chains
// are independent. For coefficient c it leaves in dst[3c:3c+3] the sum's
// two words, low first, and its chain's counts: the reductions in the
// low half of the third word, the limbs the ≥ q compares examined in
// the high half.
//
// Each coefficient is read as a 128-bit integer, its w limbs
// zero-extended, and each addition is a branch-free
// bits.Add64/bits.Sub64 pair with a mask select, as poly.addW4 does on
// the host. It reduces when the sum carried past bit 32w or is ≥ q.
// limb32.AddMod never compares a sum that carried, and otherwise
// examines limbs from the top down to the first one where the sum and q
// differ: ⌊lz₁₂₈(s ⊕ q)/32⌋ + 1 − (4 − w) of them, as the 4 − w limbs
// above the width agree, or all w when s = q. Below 4 limbs the 128-bit
// words hold the carry: a sum past bit 32w is ≥ q, and s ⊕ q has that
// bit set, so the count is 0 by itself.
func fold(dst []uint64, in []uint32, w, coeffs int, q limb32.Nat) {
	q0, q1 := loadW(q)
	dst = dst[:3*coeffs]
	for c := 0; c < coeffs; c++ {
		dst[3*c], dst[3*c+1] = loadW(in[w*c : w*(c+1)])
		dst[3*c+2] = 0
	}
	for vec := in[w*coeffs:]; len(vec) > 0; {
		for k := 0; k < len(dst); k += 3 {
			d := dst[k : k+3 : k+3]
			y0, y1 := loadW(vec[:w])
			vec = vec[w:]
			s0, carry := bits.Add64(d[0], y0, 0)
			s1, carry := bits.Add64(d[1], y1, carry)
			t0, br := bits.Sub64(s0, q0, 0)
			t1, br := bits.Sub64(s1, q1, br)
			red := carry | (br ^ 1) // 1 when the sum carried out or is ≥ q
			mask := -red
			d[0], d[1] = s0^(s0^t0)&mask, s1^(s1^t1)&mask
			lz := bits.LeadingZeros64(s1 ^ q1)
			if lz == 64 {
				lz += bits.LeadingZeros64(s0 ^ q0)
			}
			examined := uint64(min(lz>>5+w-3, w)) &^ -carry // ⌊lz/32⌋ + 1 − (4 − w)
			d[2] += red | examined<<32
		}
	}
}

// An addTally counts what limb32.AddMod charges for the additions of
// w-limb coefficients a tasklet's program makes, and charges the total
// once; a tally is order-free, so this changes no figure. Per sum AddMod
// charges the w-limb add chain, two loads and a compare per limb its
// ≥ q compare examines, and the w-limb subtract chain when the sum
// reduces.
type addTally struct {
	w                       int
	sums, reduced, examined int
}

// take copies the folded sums of a tile's coefficients — three words
// each, as fold leaves them — into the accumulator acc, and counts
// their chains of adds additions each.
func (t *addTally) take(acc []uint32, folded []uint64, adds int) {
	w, n := t.w, len(folded)/3
	for c := 0; c < n; c++ {
		storeW(acc[w*c:w*(c+1)], folded[3*c], folded[3*c+1])
		counts := folded[3*c+2]
		t.reduced += int(uint32(counts))
		t.examined += int(counts >> 32)
	}
	t.sums += n * adds
}

// charge charges m the tally of every sum counted: per sum the add
// chain's 2w loads, add, w − 1 addc, w stores and w loop trips; two
// loads and a compare per examined limb; the same chain of sub and subb
// per reduction.
func (t *addTally) charge(m limb32.Meter) {
	w, n, red, ex := t.w, t.sums, t.reduced, t.examined
	m.Tick(limb32.OpLoad, 2*w*(n+red)+2*ex)
	m.Tick(limb32.OpAdd, n)
	m.Tick(limb32.OpAddC, (w-1)*n)
	m.Tick(limb32.OpSub, red)
	m.Tick(limb32.OpSubB, (w-1)*red)
	m.Tick(limb32.OpLogic, ex)
	m.Tick(limb32.OpStore, w*(n+red))
	m.Tick(limb32.OpLoop, w*(n+red))
}

// loadW reads the one to four limbs of c as a 128-bit integer in two
// words, low word first.
func loadW(c []uint32) (lo, hi uint64) {
	lo = uint64(c[0])
	if len(c) > 1 {
		lo |= uint64(c[1]) << 32
	}
	if len(c) > 2 {
		hi = uint64(c[2])
	}
	if len(c) > 3 {
		hi |= uint64(c[3]) << 32
	}
	return lo, hi
}

// storeW writes the low len(c) limbs of the 128-bit integer lo, hi to c.
func storeW(c []uint32, lo, hi uint64) {
	copy(c, []uint32{uint32(lo), uint32(lo >> 32), uint32(hi), uint32(hi >> 32)})
}
