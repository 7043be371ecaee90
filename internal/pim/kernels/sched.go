package kernels

import (
	"errors"
	"fmt"

	"repro/internal/limb32"
	"repro/internal/pim"
	"repro/internal/pimsched"
)

// Host-side drivers. Each one describes its work as a pimsched.Shard
// plan — cut across DPUs, stage, launch, gather — and hands it to the
// scheduler, which alone decides where shards land, how faulted shards
// are retried or re-placed, and what the transfers cost. This mirrors
// the paper's host program, which "dynamically adjusts the utilization
// of PIM cores" to the problem size (§4.3 observation 4).

// plan cuts len(out)/unitWords work units into nShards shards. Every
// kernel shares one per-DPU MRAM layout: input v's slice is staged at
// v·words, the output is written at len(ins)·words, where words is the
// shard's slice length. kernel builds the tasklet program for a shard
// of cnt units. The declared transfer bytes count the same lo:hi
// slices the closures copy.
func plan(sys *pim.System, ins [][]uint32, out []uint32, unitWords, nShards int, kernel func(cnt int) pim.KernelFunc) []pimsched.Shard {
	units := len(out) / unitWords
	shards := make([]pimsched.Shard, nShards)
	for i := range shards {
		s, e := pim.Partition(units, nShards, i)
		lo, hi := s*unitWords, e*unitWords
		words := hi - lo
		if words == 0 {
			continue // empty shard: nothing staged, an empty tasklet program
		}
		shards[i] = pimsched.Shard{
			BytesIn:  int64(4 * len(ins) * words),
			BytesOut: int64(4 * words),
			Stage: func(d int) error {
				// Reserve the whole layout first, so a DPU's MRAM image
				// grows once rather than once per input.
				if err := sys.DPUs[d].EnsureMRAM((len(ins) + 1) * words); err != nil {
					return err
				}
				for v, in := range ins {
					if err := sys.CopyToDPU(d, v*words, in[lo:hi]); err != nil {
						return err
					}
				}
				return nil
			},
			Kernel: kernel(e - s),
			Gather: func(d int) error {
				return sys.CopyFromDPU(d, len(ins)*words, out[lo:hi])
			},
		}
	}
	return shards
}

// RunVectorAddSched computes out[i] = (a[i] + b[i]) mod q element-wise
// over two flat vectors of w-limb coefficients.
func RunVectorAddSched(sched *pimsched.Scheduler, a, b []uint32, w int, q limb32.Nat) ([]uint32, *pimsched.Report, error) {
	if len(a) != len(b) {
		return nil, nil, errors.New("kernels: operand length mismatch")
	}
	if len(a)%w != 0 {
		return nil, nil, errors.New("kernels: vector length not a multiple of the limb width")
	}
	out := make([]uint32, len(a))
	rep, err := sched.Run(plan(sched.Sys, [][]uint32{a, b}, out, w, sched.TargetShards(len(a)/w),
		func(cnt int) pim.KernelFunc {
			return VectorAdd(VecAddLayout{W: w, Coeffs: cnt, OffA: 0, OffB: cnt * w, OffOut: 2 * cnt * w, Q: q})
		}))
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// RunVectorPolyMulSched computes, for every polynomial pair p, the
// negacyclic product a_p·b_p in R_q. a and b hold concatenated
// polynomials of n coefficients × w limbs; pairs are the work unit.
func RunVectorPolyMulSched(sched *pimsched.Scheduler, a, b []uint32, n, w int, q limb32.Nat) ([]uint32, *pimsched.Report, error) {
	if len(a) != len(b) {
		return nil, nil, errors.New("kernels: operand length mismatch")
	}
	polyWords := n * w
	if polyWords == 0 || len(a)%polyWords != 0 {
		return nil, nil, fmt.Errorf("kernels: vector length %d not a multiple of poly size %d", len(a), polyWords)
	}
	out := make([]uint32, len(a))
	rep, err := sched.Run(plan(sched.Sys, [][]uint32{a, b}, out, polyWords, sched.TargetShards(len(a)/polyWords),
		func(cnt int) pim.KernelFunc {
			words := cnt * polyWords
			return VectorPolyMul(PolyMulLayout{W: w, N: n, Pairs: cnt, OffA: 0, OffB: words, OffOut: 2 * words, Q: q})
		}))
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
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
	out := make([]uint32, length)
	rep, err := sched.Run(plan(sched.Sys, vecs, out, w, sched.TargetShards(length/w),
		func(cnt int) pim.KernelFunc {
			return VectorSum(VecSumLayout{W: w, Coeffs: cnt, M: M, OffIn: 0, OffOut: M * cnt * w, Q: q})
		}))
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// RunNTTPolyMulSched multiplies polynomial pairs of degree p.N over the
// plan's modulus by the NTT kernel; pairs are the work unit.
func RunNTTPolyMulSched(sched *pimsched.Scheduler, p *NTTPlan, a, b []uint32) ([]uint32, *pimsched.Report, error) {
	n := p.N
	if len(a) != len(b) || len(a)%n != 0 {
		return nil, nil, errors.New("kernels: NTT operand shape mismatch")
	}
	out := make([]uint32, len(a))
	rep, err := sched.Run(plan(sched.Sys, [][]uint32{a, b}, out, n, sched.TargetShards(len(a)/n),
		func(cnt int) pim.KernelFunc {
			words := cnt * n
			return NTTPolyMul(NTTMulLayout{Plan: p, Pairs: cnt, OffA: 0, OffB: words, OffOut: 2 * words})
		}))
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}
