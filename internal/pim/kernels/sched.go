package kernels

import (
	"errors"
	"fmt"

	"repro/internal/limb32"
	"repro/internal/pim"
	"repro/internal/pimsched"
)

// Host-side drivers. Each one describes its work as a pimsched.Shard
// plan — word ranges of its inputs and output, each with its tasklet
// program — and hands it to the scheduler, which alone stages and
// gathers those ranges, decides where shards land, how faulted shards
// are retried or re-placed, and what the transfers cost. This mirrors
// the paper's host program, which "dynamically adjusts the utilization
// of PIM cores" to the problem size (§4.3 observation 4).

// runPlan cuts the len(ins[0])/unitWords work units into one shard per
// target DPU and runs them into a fresh output of the same length.
// Every kernel shares the scheduler's per-DPU MRAM layout: input v at
// v·words, the output at len(ins)·words, where words is the shard's
// range length; kernel builds the tasklet program for a shard of cnt
// units.
func runPlan(sched *pimsched.Scheduler, ins [][]uint32, unitWords int, kernel func(cnt int) pim.KernelFunc) ([]uint32, *pimsched.Report, error) {
	out := make([]uint32, len(ins[0]))
	units := len(out) / unitWords
	shards := make([]pimsched.Shard, sched.TargetShards(units))
	for i := range shards {
		s, e := pim.Partition(units, len(shards), i)
		shards[i] = pimsched.Shard{Lo: s * unitWords, Hi: e * unitWords}
		if e > s {
			shards[i].Kernel = kernel(e - s)
		}
	}
	rep, err := sched.Run(ins, out, shards)
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// RunVectorAddSched computes out[i] = (a[i] + b[i]) mod q element-wise
// over two flat vectors of w-limb coefficients: the sum of [a, b].
func RunVectorAddSched(sched *pimsched.Scheduler, a, b []uint32, w int, q limb32.Nat) ([]uint32, *pimsched.Report, error) {
	return RunVectorSumSched(sched, [][]uint32{a, b}, w, q)
}

// RunVectorPolyMulSched computes, for every polynomial pair p, the
// negacyclic product a_p·b_p in R_q. a and b hold concatenated
// polynomials of n coefficients × w limbs, 1 ≤ w ≤ 8; pairs are the
// work unit.
func RunVectorPolyMulSched(sched *pimsched.Scheduler, a, b []uint32, n, w int, q limb32.Nat) ([]uint32, *pimsched.Report, error) {
	if len(a) != len(b) {
		return nil, nil, errors.New("kernels: operand length mismatch")
	}
	if w < 1 || w > 8 {
		return nil, nil, fmt.Errorf("kernels: no product kernel for %d-limb coefficients", w)
	}
	polyWords := n * w
	if polyWords == 0 || len(a)%polyWords != 0 {
		return nil, nil, fmt.Errorf("kernels: vector length %d not a multiple of poly size %d", len(a), polyWords)
	}
	return runPlan(sched, [][]uint32{a, b}, polyWords, func(cnt int) pim.KernelFunc {
		words := cnt * polyWords
		return VectorPolyMul(PolyMulLayout{W: w, N: n, Pairs: cnt, OffA: 0, OffB: words, OffOut: 2 * words, Q: q})
	})
}

// RunVectorSumSched reduces M equal-length coefficient vectors
// element-wise modulo q: each DPU owns a coefficient shard of every
// vector and reduces it locally in a single kernel launch.
func RunVectorSumSched(sched *pimsched.Scheduler, vecs [][]uint32, w int, q limb32.Nat) ([]uint32, *pimsched.Report, error) {
	if len(vecs) == 0 {
		return nil, nil, errors.New("kernels: no vectors to sum")
	}
	length := len(vecs[0])
	for _, v := range vecs {
		if len(v) != length {
			return nil, nil, errors.New("kernels: vector length mismatch")
		}
	}
	if length%w != 0 {
		return nil, nil, errors.New("kernels: vector length not a multiple of the limb width")
	}
	M := len(vecs)
	return runPlan(sched, vecs, w, func(cnt int) pim.KernelFunc {
		return VectorSum(VecSumLayout{W: w, Coeffs: cnt, M: M, OffIn: 0, OffOut: M * cnt * w, Q: q})
	})
}

// RunNTTPolyMulSched multiplies polynomial pairs of degree p.N over the
// plan's modulus by the NTT kernel; pairs are the work unit.
func RunNTTPolyMulSched(sched *pimsched.Scheduler, p *NTTPlan, a, b []uint32) ([]uint32, *pimsched.Report, error) {
	n := p.N
	if len(a) != len(b) || len(a)%n != 0 {
		return nil, nil, errors.New("kernels: NTT operand shape mismatch")
	}
	return runPlan(sched, [][]uint32{a, b}, n, func(cnt int) pim.KernelFunc {
		words := cnt * n
		return NTTPolyMul(NTTMulLayout{Plan: p, Pairs: cnt, OffA: 0, OffB: words, OffOut: 2 * words})
	})
}
