package kernels

import (
	"math/bits"

	"repro/internal/limb32"
	"repro/internal/pim"
)

// VecSumLayout describes one DPU's shard of an element-wise modular sum
// over M vectors: M shards of Coeffs coefficients stored consecutively
// starting at OffIn (vector v's shard at OffIn + v·Coeffs·W), output at
// OffOut. A vector addition is the sum of M = 2.
type VecSumLayout struct {
	W      int
	Coeffs int
	M      int
	OffIn  int
	OffOut int
	Q      limb32.Nat
}

// addTile returns the DMA tile size (in coefficients) for a tasklet that
// owns span coefficients of width w: three tiles fill a quarter of WRAM,
// the size every simulated add figure was pinned at, and none needs to
// be longer than the span.
func addTile(w, span int) int {
	t := (pim.WRAMWords / 4) / (3 * w)
	return max(1, min(t, span))
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
// At W = 4, the 109-bit width every PIM Sum runs, the host does not
// walk that program tasklet by tasklet. The first of the DPU's tasklets
// to run in a launch folds the DPU's whole shard once, streaming its
// MRAM a vector at a time (foldW4), into words the DPU owns for the
// launch (TaskletCtx.LaunchWords): each coefficient's sum and the
// counts its additions' tally depends on. Each tasklet then charges the
// DMAs and instructions of its own tiles, copies its coefficients' sums
// into its accumulator and charges their tally once (addTally) — what
// its program charges, so every figure is the per-tasklet program's.
// Other widths call limb32.AddMod: no workload runs them hot.
func VectorSum(l VecSumLayout) pim.KernelFunc {
	return func(ctx *pim.TaskletCtx) error {
		start, end := pim.Partition(l.Coeffs, ctx.NumTasklets, ctx.TaskletID)
		if start >= end {
			return nil
		}
		w := l.W
		tile := addTile(w, end-start)
		wram, err := ctx.WRAM(2 * tile * w)
		if err != nil {
			return err
		}
		acc, buf := wram[:tile*w], wram[tile*w:]
		m := ctx.Meter()
		folded := foldedSums(ctx, l)
		var tally addTally
		for c := start; c < end; c += tile {
			cnt := min(tile, end-c)
			ctx.MRAMRead(l.OffIn+c*w, acc[:cnt*w]) // vector 0 seeds the accumulator
			if folded != nil {
				ctx.ChargeDMA(l.M-1, 4*cnt*w)
				ctx.ChargeInstr(int64(2 * cnt * (l.M - 1)))
				tally.take(acc[:cnt*w], folded[3*c:3*(c+cnt)], l.M-1)
			} else {
				for v := 1; v < l.M; v++ {
					ctx.MRAMRead(l.OffIn+(v*l.Coeffs+c)*w, buf[:cnt*w])
					for i := 0; i < cnt*w; i += w {
						limb32.AddMod(acc[i:i+w], acc[i:i+w], buf[i:i+w], l.Q, m)
					}
					ctx.ChargeInstr(int64(2 * cnt)) // per coefficient: loop index + branch
				}
			}
			ctx.MRAMWrite(l.OffOut+c*w, acc[:cnt*w])
		}
		tally.charge(m)
		return nil
	}
}

// foldedSums returns, at W = 4, three words per coefficient of the
// DPU's shard as foldW4 leaves them; at other widths it returns nil.
// The DPU's first tasklet of the launch folds them from its MRAM; the
// tasklets after it find them in the DPU's launch words.
func foldedSums(ctx *pim.TaskletCtx, l VecSumLayout) []uint64 {
	if l.W != 4 {
		return nil
	}
	words, fresh := ctx.LaunchWords(3 * l.Coeffs)
	if fresh {
		foldW4(words, ctx.MRAMView(l.OffIn, l.M*l.Coeffs*4), l.Coeffs, l.Q)
	}
	return words
}

// foldW4 sums the vectors of 4-limb coefficients in in — vector v's
// coefficient c at in[4(v·coeffs+c):] — coefficient-wise mod q, in the
// order each tasklet adds them: vector 0 seeds the sum and every later
// vector is added with limb32.AddMod's reduction. It streams in in
// order, vector outer and coefficient inner, so the coeffs add chains
// are independent. For coefficient c it leaves in dst[3c:3c+3] the sum's
// two words, low first, and its chain's counts: the reductions in the
// low half of the third word, the limbs the ≥ q compares examined in
// the high half.
//
// Each addition is a branch-free bits.Add64/bits.Sub64 pair with a mask
// select, as poly.addW4 does on the host. It reduces when the sum
// carried out of 128 bits or is ≥ q. limb32.AddMod never compares a sum
// that carried out, and otherwise examines limbs from the top down to
// the first one where the sum and q differ: ⌊lz₁₂₈(s ⊕ q)/32⌋ + 1 of
// them, or all four when s = q.
func foldW4(dst []uint64, in []uint32, coeffs int, q limb32.Nat) {
	q0, q1 := load128(q)
	dst = dst[:3*coeffs]
	for c := 0; c < coeffs; c++ {
		dst[3*c], dst[3*c+1] = load128(in[4*c:])
		dst[3*c+2] = 0
	}
	for row := 4 * coeffs; row < len(in); row += 4 * coeffs {
		vec := in[row : row+4*coeffs]
		for k := 0; k < coeffs; k++ {
			d := dst[3*k : 3*k+3]
			y0, y1 := load128(vec[4*k:])
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
			examined := uint64(min(lz>>5+1, 4)) &^ -carry
			d[2] += red | examined<<32
		}
	}
}

// An addTally counts what limb32.AddMod charges for the W = 4 additions
// a tasklet's program makes, and charges the total once; a tally is
// order-free, so this changes no figure. Per sum AddMod charges the
// 4-limb add chain, two loads and a compare per limb its ≥ q compare
// examines, and the 4-limb subtract chain when the sum reduces.
type addTally struct {
	sums, reduced, examined int
}

// take copies the folded sums of a tile's coefficients — three words
// each, as foldW4 leaves them — into the accumulator acc, and counts
// their chains of adds additions each.
func (t *addTally) take(acc []uint32, folded []uint64, adds int) {
	n := len(folded) / 3
	for c := 0; c < n; c++ {
		store128(acc[4*c:], folded[3*c], folded[3*c+1])
		counts := folded[3*c+2]
		t.reduced += int(uint32(counts))
		t.examined += int(counts >> 32)
	}
	t.sums += n * adds
}

// charge charges m the tally of every sum counted: the add chain per
// sum, two loads and a compare per examined limb, the subtract chain
// per reduction.
func (t *addTally) charge(m limb32.Meter) {
	n, red, ex := t.sums, t.reduced, t.examined
	m.Tick(limb32.OpLoad, 8*(n+red)+2*ex)
	m.Tick(limb32.OpAdd, n)
	m.Tick(limb32.OpAddC, 3*n)
	m.Tick(limb32.OpSub, red)
	m.Tick(limb32.OpSubB, 3*red)
	m.Tick(limb32.OpLogic, ex)
	m.Tick(limb32.OpStore, 4*(n+red))
	m.Tick(limb32.OpLoop, 4*(n+red))
}

// load128 reads four limbs as two 64-bit words, low word first.
func load128(c []uint32) (lo, hi uint64) {
	_ = c[3]
	return uint64(c[0]) | uint64(c[1])<<32, uint64(c[2]) | uint64(c[3])<<32
}

func store128(c []uint32, lo, hi uint64) {
	_ = c[3]
	c[0], c[1], c[2], c[3] = uint32(lo), uint32(lo>>32), uint32(hi), uint32(hi>>32)
}
