package kernels

import (
	"repro/internal/limb32"
	"repro/internal/pim"
)

// VecSumLayout describes one DPU's shard of an element-wise modular sum
// over M vectors: M shards of Coeffs coefficients stored consecutively
// starting at OffIn (vector v's shard at OffIn + v·Coeffs·W), output at
// OffOut.
type VecSumLayout struct {
	W      int
	Coeffs int
	M      int
	OffIn  int
	OffOut int
	Q      limb32.Nat
}

// VectorSum returns the tasklet program computing
// out[i] = Σ_v vec_v[i] mod q — the reduction at the heart of the paper's
// arithmetic-mean workload (§3: polynomial addition on the PIM cores, the
// final scalar division on the host). Each tasklet folds its vectors into
// an accumulator in place through addRun, which charges the additions'
// tally once per tasklet.
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
		run := newAddRun(l.Q)
		for c := start; c < end; c += tile {
			cnt := min(tile, end-c)
			ctx.MRAMRead(l.OffIn+c*w, acc[:cnt*w]) // vector 0 seeds the accumulator
			for v := 1; v < l.M; v++ {
				ctx.MRAMRead(l.OffIn+(v*l.Coeffs+c)*w, buf[:cnt*w])
				run.add(acc[:cnt*w], acc[:cnt*w], buf[:cnt*w], m)
				ctx.ChargeInstr(int64(2 * cnt)) // per coefficient: loop index + branch
			}
			ctx.MRAMWrite(l.OffOut+c*w, acc[:cnt*w])
		}
		run.charge(m)
		return nil
	}
}
