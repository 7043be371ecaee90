package bench

import (
	"math/big"

	"repro/internal/bfv"
	"repro/internal/nt"
	"repro/internal/pim"
	"repro/internal/pim/kernels"
	"repro/internal/pimsched"
	"repro/internal/poly"
	"repro/internal/sampling"
)

// Direct-simulation helpers for the experiments that interrogate the PIM
// machine itself rather than the cross-platform models.

func randCoeffVec(src *sampling.Source, coeffs int, mod *poly.Modulus) []uint32 {
	out := make([]uint32, coeffs*mod.W)
	src.UniformCoeffs(out, mod.Q)
	return out
}

type taskletPoint struct {
	tasklets int
	cycles   int64
}

// taskletSweepCycles measures simulated kernel cycles of a fixed 128-bit
// vector addition (8192 coefficients, 1 DPU) across tasklet counts.
func taskletSweepCycles(taskletCounts []int) ([]taskletPoint, error) {
	mod := bfv.ParamsSec109().Q
	src := sampling.NewSourceFromUint64(77)
	a := randCoeffVec(src, 8192, mod)
	b := randCoeffVec(src, 8192, mod)
	var out []taskletPoint
	for _, tk := range taskletCounts {
		cfg := pim.DefaultConfig()
		cfg.Tasklets = tk
		sched, err := pimsched.OneDPU(cfg)
		if err != nil {
			return nil, err
		}
		_, rep, err := kernels.RunVectorAddSched(sched, a, b, mod.W, mod.Q)
		if err != nil {
			return nil, err
		}
		out = append(out, taskletPoint{tasklets: tk, cycles: rep.KernelCycles})
	}
	return out, nil
}

// nttAblationCycles compares the paper's deferred NTT optimization
// against the schoolbook kernel on the simulator: 16 polynomial pairs of
// degree n over a 27-bit NTT-friendly prime, all tasklets busy.
func nttAblationCycles(n int) (school, nttc int64, err error) {
	q, err := nt.NTTPrime(27, n)
	if err != nil {
		return 0, 0, err
	}
	plan, err := kernels.NewNTTPlan(q, n)
	if err != nil {
		return 0, 0, err
	}
	mod, err := poly.NewModulus(new(big.Int).SetUint64(q))
	if err != nil {
		return 0, 0, err
	}
	src := sampling.NewSourceFromUint64(79)
	pairs := 16
	a := make([]uint32, pairs*n)
	b := make([]uint32, pairs*n)
	for i := range a {
		a[i] = uint32(src.Uint64N(q))
		b[i] = uint32(src.Uint64N(q))
	}
	sched1, err := pimsched.OneDPU(pim.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	_, repS, err := kernels.RunVectorPolyMulSched(sched1, a, b, n, 1, mod.Q)
	if err != nil {
		return 0, 0, err
	}
	sched2, err := pimsched.OneDPU(pim.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	_, repN, err := kernels.RunNTTPolyMulSched(sched2, plan, a, b)
	if err != nil {
		return 0, 0, err
	}
	return repS.KernelCycles, repN.KernelCycles, nil
}

// energyFigures measures the energy split of a 128-bit addition shard on
// the simulator and extrapolates to the Fig 1(a) workload: kernel energy
// vs the host-transfer energy the PIM paradigm avoids for resident data.
func energyFigures() (kernelJ, transferJ float64, err error) {
	mod := bfv.ParamsSec109().Q
	src := sampling.NewSourceFromUint64(80)
	shard := 4096 // coefficients on one DPU
	a := randCoeffVec(src, shard, mod)
	b := randCoeffVec(src, shard, mod)
	sched, err := pimsched.OneDPU(pim.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	_, rep, err := kernels.RunVectorAddSched(sched, a, b, mod.W, mod.Q)
	if err != nil {
		return 0, 0, err
	}
	perShardJ := rep.EnergyKernelJoules

	// Fig 1(a) at 20480 ciphertexts: 83.9M coefficients total.
	totalCoeffs := float64(20480 * 4096)
	kernelJ = perShardJ * totalCoeffs / float64(shard)
	bytes := int64(totalCoeffs) * int64(mod.W) * 4 * 3 // 2 in + 1 out
	transferJ = pim.DefaultEnergyModel().HostTransferEnergyJoules(bytes)
	return kernelJ, transferJ, nil
}

// karatsubaAblationCycles compares the metered cycle cost of one 128-bit
// polynomial pair (n=64) under Karatsuba vs schoolbook limb
// multiplication, by re-pricing the product mix: Karatsuba charges 9
// mul32 per coefficient product where schoolbook charges 16.
func karatsubaAblationCycles() (karatsuba, schoolbook int64, err error) {
	mod := bfv.ParamsSec109().Q
	src := sampling.NewSourceFromUint64(78)
	n := 64
	a := randCoeffVec(src, n, mod)
	b := randCoeffVec(src, n, mod)
	cfg := pim.DefaultConfig()
	sched, err := pimsched.OneDPU(cfg)
	if err != nil {
		return 0, 0, err
	}
	_, rep, err := kernels.RunVectorPolyMulSched(sched, a, b, n, mod.W, mod.Q)
	if err != nil {
		return 0, 0, err
	}
	karatsuba = rep.KernelCycles

	// Schoolbook variant: every 4×4-limb product costs 16 instead of 9
	// mul32 (and proportionally more adds); re-price the dominant term.
	extraMuls := int64(n*n) * int64(16-9) // products per pair
	mulCost := int64(cfg.Cost.Mul32Instr)
	schoolbook = karatsuba + extraMuls*mulCost
	return karatsuba, schoolbook, nil
}
