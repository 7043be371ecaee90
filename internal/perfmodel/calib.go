package perfmodel

// Calibration constants for the baseline platform models.
//
// Provenance policy: each constant is either (a) a published hardware
// parameter, (b) a mechanistic instruction-count estimate, or (c) a
// calibration chosen to reproduce a specific ratio the paper reports,
// marked "calibrated to". The PIM side has NO constants here — it is
// measured from the cycle-level simulator. The resulting PIM/CPU factors
// for every figure are pinned by internal/bench's TestGoldenSpeedups.

// ---------------------------------------------------------------- CPU --

const (
	// cpuClockHz is the single-core turbo clock of the Intel i5-8250U
	// (published: 3.4 GHz; base 1.6 GHz).
	cpuClockHz = 3.4e9

	// cpuThreads is the thread count of the custom CPU microbenchmarks
	// and of the multiplication-heavy statistical workloads (the i5-8250U
	// has 4 cores). The paper's add-only arithmetic-mean loop behaves as
	// a sequential implementation (its reported speedups are ~4× those a
	// 4-thread add could explain), so the mean model uses 1 thread; see
	// cpuMeanThreads. Both choices are disclosed model assumptions.
	cpuThreads     = 4
	cpuMeanThreads = 1

	// cpuAddCyclesPerLimb: scalar multi-limb modular addition costs ~3
	// cycles per 32-bit limb per coefficient (load/adc/store chain plus
	// compare-and-correct, IPC-adjusted). Mechanistic estimate; with 4
	// threads it reproduces Fig. 1(a)'s 21–28× PIM-over-CPU band.
	cpuAddCyclesPerLimb = 3.0

	// cpuMulCyclesPerProduct[w]: one W-limb coefficient product including
	// modular reduction, in the paper's limb-based custom implementation.
	// The 9:3:1 structure follows the Karatsuba sub-product counts;
	// the absolute level (260 cycles for 128-bit) is calibrated to
	// Fig. 1(b)'s ~41× PIM-over-CPU annotation.
	cpuMul32CyclesPerProduct  = 28.0
	cpuMul64CyclesPerProduct  = 85.0
	cpuMul128CyclesPerProduct = 260.0

	// cpuMemBandwidth is the dual-channel DDR4-2400 streaming bandwidth
	// roofline of the i5-8250U platform (published: ~19.2 GB/s per
	// channel pair; ~17 GB/s sustained).
	cpuMemBandwidth = 17e9
)

func cpuMulCyclesPerProduct(w int) float64 {
	switch {
	case w <= 1:
		return cpuMul32CyclesPerProduct
	case w == 2:
		return cpuMul64CyclesPerProduct
	case w <= 4:
		return cpuMul128CyclesPerProduct
	default:
		return cpuMul128CyclesPerProduct * float64(w*w) / 16
	}
}

// ---------------------------------------------------------------- GPU --

const (
	// gpuHBMBandwidth is the published A100-40GB HBM2e bandwidth.
	gpuHBMBandwidth = 1.555e12

	// gpuHBMEfficiency: the custom addition kernel issues uncoalesced
	// multi-word accesses; 25% of peak is a standard naive-kernel figure.
	// Calibrated to Fig. 1(a)'s "PIM 2–15× over GPU" band.
	gpuHBMEfficiency = 0.25

	// gpuLaunchOverheadSec is a typical CUDA kernel launch + sync cost.
	gpuLaunchOverheadSec = 10e-6

	// gpuMulProductsPerSec[w]: sustained W-limb coefficient products per
	// second of the custom multiplication kernel. The A100 has native
	// 32-bit integer multipliers (the PIM system's missing feature —
	// Key Takeaway 2), so these sit ~3 orders above a DPU. Absolute level
	// calibrated to Fig. 1(b)'s 12–15× GPU-over-PIM band.
	gpuMul32ProductsPerSec  = 2.3e11
	gpuMul64ProductsPerSec  = 7.8e10
	gpuMul128ProductsPerSec = 2.6e10

	// gpuStatsLaunchPerOp: the custom statistical workloads launch one
	// kernel per homomorphic operation (the naive port the paper's 9–34×
	// mean advantage implies).
	gpuStatsLaunchPerOp = gpuLaunchOverheadSec

	// gpuPCIeBytesPerSec is the effective host↔device bandwidth of the
	// A100's PCIe 4.0 ×16 link (published 32 GB/s raw, ~25 GB/s
	// sustained). Used by the data-movement ablation.
	gpuPCIeBytesPerSec = 25e9
)

func gpuMulProductsPerSec(w int) float64 {
	switch {
	case w <= 1:
		return gpuMul32ProductsPerSec
	case w == 2:
		return gpuMul64ProductsPerSec
	default:
		return gpuMul128ProductsPerSec * 16 / float64(w*w)
	}
}

// ----------------------------------------------------------- CPU-SEAL --

const (
	// sealAddCyclesPerChannelCoeff: SEAL's RNS addition is one uint64
	// add + conditional subtract per channel coefficient.
	sealAddCyclesPerChannelCoeff = 1.0

	// sealPerOpOverheadSec: per-operation library overhead (allocation,
	// parameter checks). Calibrated to Fig. 1(a)'s 35–80× PIM-over-SEAL
	// band together with Fig. 2(a)'s 11–50×.
	sealPerOpOverheadSec = 5e-6

	// sealButterflyCycles: one Harvey NTT butterfly (2 Shoup multiplies,
	// add, sub) including memory traffic on the mobile i5. Calibrated to
	// Fig. 1(b)'s "CPU-SEAL 2–4× faster than PIM at 64/128 bits, 2×
	// slower at 32 bits" crossover.
	sealButterflyCycles = 45.0

	// sealStatsMulFactor: a full BFV multiply+relinearize costs ~20× a
	// bare NTT negacyclic product (base extensions into the tensor basis,
	// 4-way tensor product, rescaling, relinearization key switching) —
	// consistent with published SEAL evaluator timings (~25–40 ms for
	// multiply+relinearize at n=4096 on laptop-class hardware).
	// Calibrated to Fig. 2(b)'s "CPU-SEAL 2–10× faster than PIM" band.
	sealStatsMulFactor = 20.0
)

// sealChannels maps the paper's coefficient widths to RNS channel counts:
// 27- and 54-bit moduli fit one word-sized prime; 109 bits needs two.
func sealChannels(w int) int {
	if w <= 2 {
		return 1
	}
	return (w + 1) / 2
}

// ---------------------------------------------------------------- PIM --

// pimStatsDPUs is the DPU count used for the §4.3 statistical workloads:
// the nominal 20-rank UPMEM system has 2,560 DPUs; the paper's 2,524
// reflects units disabled in their specific machine. Fig. 2 shows PIM
// execution time constant up to 2,560 users (one user per DPU), so the
// stats model uses the nominal count. The §4.2 microbenchmarks use the
// paper's 2,524.
const pimStatsDPUs = 2560
