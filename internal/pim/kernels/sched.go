package kernels

import (
	"errors"
	"fmt"
	"slices"

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
// of PIM cores" to the problem size (§4.3 observation 4). A driver is a
// compile step, which cuts and places the plan for one operand shape,
// and Plan.Run, which runs it; each Run*Sched function is the two in
// one call.

// A Plan is a driver's shard plan compiled on one scheduler for one
// operand shape. Run stages the operands, launches every shard's
// program and gathers the result, as often as asked: the output, which
// the caller owns, is all it allocates for the driver. Like the
// scheduler, a Plan runs one call at a time.
type Plan struct {
	sched  *pimsched.Scheduler
	plan   *pimsched.Plan
	inputs int // operand vectors a Run takes
	length int // words in each operand and in the output
}

// compile cuts the length/unitWords work units into one shard per
// target DPU and places them, for Runs over inputs operand vectors of
// length words. Every kernel shares the scheduler's per-DPU MRAM
// layout: input v at v·words, the output at inputs·words, where words
// is the shard's range length; kernel builds the tasklet program for a
// shard of the cnt units from unit first on.
func compile(sched *pimsched.Scheduler, inputs, length, unitWords int, kernel func(first, cnt int) pim.KernelFunc) (*Plan, error) {
	units := length / unitWords
	shards := make([]pimsched.Shard, sched.TargetShards(units))
	for i := range shards {
		s, e := pim.Partition(units, len(shards), i)
		shards[i] = pimsched.Shard{Lo: s * unitWords, Hi: e * unitWords}
		if e > s {
			shards[i].Kernel = kernel(s, e-s)
		}
	}
	p, err := sched.Compile(shards)
	if err != nil {
		return nil, err
	}
	return &Plan{sched: sched, plan: p, inputs: inputs, length: length}, nil
}

// Fits reports whether the plan runs inputs operand vectors of length
// words as it was compiled: the shape is its own and no DPU has died
// since it was placed.
func (p *Plan) Fits(inputs, length int) bool {
	return p.inputs == inputs && p.length == length && p.sched.Placed(p.plan)
}

// Run runs the plan over ins, the plan's number of operand vectors of
// its length each, into a fresh output.
func (p *Plan) Run(ins [][]uint32) ([]uint32, *pimsched.Report, error) {
	if len(ins) != p.inputs {
		return nil, nil, fmt.Errorf("kernels: %d operand vectors for a plan of %d", len(ins), p.inputs)
	}
	for _, v := range ins {
		if len(v) != p.length {
			return nil, nil, errors.New("kernels: operand length mismatch")
		}
	}
	out := make([]uint32, p.length)
	rep, err := p.sched.Run(p.plan, ins, out)
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
// negacyclic product a_p·b_p in R_q: RunVectorPolyMulModsSched with q
// for every pair.
func RunVectorPolyMulSched(sched *pimsched.Scheduler, a, b []uint32, n, w int, q limb32.Nat) ([]uint32, *pimsched.Report, error) {
	return RunVectorPolyMulModsSched(sched, a, b, n, w, slices.Repeat([]limb32.Nat{q}, len(a)/max(1, n*w)))
}

// RunVectorPolyMulModsSched computes, for every polynomial pair p, the
// negacyclic product a_p·b_p mod (Xⁿ+1, mods[p]): CompileVectorPolyMulMods
// for a's shape, run once over a and b.
func RunVectorPolyMulModsSched(sched *pimsched.Scheduler, a, b []uint32, n, w int, mods []limb32.Nat) ([]uint32, *pimsched.Report, error) {
	p, err := CompileVectorPolyMulMods(sched, len(a), n, w, mods)
	if err != nil {
		return nil, nil, err
	}
	return p.Run([][]uint32{a, b})
}

// CompileVectorPolyMulMods compiles the product of two operands of
// length words each: concatenated polynomials of n coefficients × w
// limbs, 1 ≤ w ≤ 8, whose pair p's negacyclic product is reduced mod
// (Xⁿ+1, mods[p]). Each modulus has w limbs; pairs are the work unit,
// and a shard's program reduces each of its pairs by that pair's own
// modulus. The plan keeps mods, which must not change while it is used.
func CompileVectorPolyMulMods(sched *pimsched.Scheduler, length, n, w int, mods []limb32.Nat) (*Plan, error) {
	if w < 1 || w > 8 {
		return nil, fmt.Errorf("kernels: no product kernel for %d-limb coefficients", w)
	}
	polyWords := n * w
	if polyWords <= 0 || length%polyWords != 0 {
		return nil, fmt.Errorf("kernels: vector length %d not a multiple of poly size %d", length, polyWords)
	}
	if len(mods) != length/polyWords {
		return nil, fmt.Errorf("kernels: %d moduli for %d polynomial pairs", len(mods), length/polyWords)
	}
	return compile(sched, 2, length, polyWords, func(first, cnt int) pim.KernelFunc {
		return VectorPolyMul(PolyMulLayout{W: w, N: n, Pairs: cnt, Q: mods[first : first+cnt]})
	})
}

// RunVectorSumSched reduces M equal-length vectors of w-limb
// coefficients, 1 ≤ w ≤ 4, element-wise modulo q: CompileVectorSum for
// their shape, run once over vecs.
func RunVectorSumSched(sched *pimsched.Scheduler, vecs [][]uint32, w int, q limb32.Nat) ([]uint32, *pimsched.Report, error) {
	if len(vecs) == 0 {
		return nil, nil, errors.New("kernels: no vectors to sum")
	}
	p, err := CompileVectorSum(sched, len(vecs), len(vecs[0]), w, q)
	if err != nil {
		return nil, nil, err
	}
	return p.Run(vecs)
}

// CompileVectorSum compiles the element-wise sum modulo q of m vectors
// of length words each, w-limb coefficients with 1 ≤ w ≤ 4: each DPU
// owns a coefficient shard of every vector and reduces it locally in a
// single kernel launch. Shards of one size share one program.
func CompileVectorSum(sched *pimsched.Scheduler, m, length, w int, q limb32.Nat) (*Plan, error) {
	if w < 1 || w > 4 {
		return nil, fmt.Errorf("kernels: no sum kernel for %d-limb coefficients", w)
	}
	if m == 0 {
		return nil, errors.New("kernels: no vectors to sum")
	}
	if length%w != 0 {
		return nil, errors.New("kernels: vector length not a multiple of the limb width")
	}
	var prog pim.KernelFunc
	progCoeffs := 0
	return compile(sched, m, length, w, func(_, cnt int) pim.KernelFunc {
		if cnt != progCoeffs {
			prog, progCoeffs = VectorSum(VecSumLayout{W: w, Coeffs: cnt, M: m, Q: q}), cnt
		}
		return prog
	})
}

// RunNTTPolyMulSched multiplies polynomial pairs of degree p.N over the
// plan's modulus by the NTT kernel; pairs are the work unit.
func RunNTTPolyMulSched(sched *pimsched.Scheduler, p *NTTPlan, a, b []uint32) ([]uint32, *pimsched.Report, error) {
	n := p.N
	if len(a) != len(b) || len(a)%n != 0 {
		return nil, nil, errors.New("kernels: NTT operand shape mismatch")
	}
	plan, err := compile(sched, 2, len(a), n, func(_, cnt int) pim.KernelFunc {
		return NTTPolyMul(NTTMulLayout{Plan: p, Pairs: cnt})
	})
	if err != nil {
		return nil, nil, err
	}
	return plan.Run([][]uint32{a, b})
}
