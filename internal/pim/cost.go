// Package pim is a functional + cycle-level simulator of the UPMEM PIM
// system the paper evaluates (§2, §4.1): a host CPU attached to PIM-enabled
// DIMMs containing DRAM Processing Units (DPUs) — fine-grained
// multithreaded 32-bit cores placed next to DRAM banks.
//
// The simulator executes real kernels over real data (results are
// bit-exact against the host implementation) while charging cycles from a
// mechanistic cost model with three rooflines per DPU:
//
//  1. dispatch bandwidth — the 14-stage in-order pipeline dispatches at
//     most one instruction per cycle, from any tasklet;
//  2. per-tasklet latency — consecutive instructions of one tasklet must
//     be ≥ RevolverDepth cycles apart, so fewer than RevolverDepth
//     tasklets leave dispatch slots empty (the paper's observation 1:
//     "performance saturates at 11 or more PIM threads");
//  3. the MRAM↔WRAM DMA engine, shared by all tasklets of a DPU.
//
// Constants default to the first-generation UPMEM system of the paper
// (2,524 DPUs at 425 MHz) with per-instruction and DMA costs taken from
// the PrIM characterization (Gómez-Luna et al., IEEE Access 2022).
//
// The metering contract. A tasklet charges into its own TaskletCtx: a
// limb32.Counts tally (TaskletCtx.Meter), raw instructions and DMA
// cycles, none of it shared with another tasklet or DPU. Tallies are
// sums, so kernels and limb32 routines may charge in any order and in
// any granularity — once per call, once per tile — and no price is
// attached while they run: the cost model prices each tasklet's totals
// once, when the tasklet returns and its context is folded into the
// DPU. Instruction pricing is linear in the counts, so this yields the
// same integers as pricing every instruction where it executes; the
// host cost of a simulated instruction is an add, not a call.
//
// Host cost per simulated product. The schoolbook product kernel
// (pim/kernels VectorPolyMul) dominates the simulator's host time. Its
// values are one exact convolution per pair at every width, and its
// tally at 32 and 64 bits is a constant per product times the count; at
// 32 bits each output's reduction is read off its convolution words as
// well. A relinearized Mul runs its tensor at 32 bits, as products of
// residues modulo 3, 4 or 8 primes below 2³¹ (27-, 54- and 109-bit q),
// and its key switch at q's width. On a 2-core 2.1 GHz Xeon one
// relinearized 27-bit n = 1024 Mul takes ≈ 4.5–8 ms of host time and a
// 54-bit n = 2048 one ≈ 12–16 ms. The 128- and 256-bit tallies still
// form each product, through limb32.Mul, for its carries: ≈ 90 ns per
// 128-bit product, so a 109-bit n = 4096 Mul takes ≈ 6 s, nearly all of
// it in its 134 M key-switch products. No Mul or figure runs 256 bits;
// only the benchmark's traced kernel row does. A Sum folds on words at
// every width, and so do the key switch's sums in every Mul: one
// 128-bit add, compare and select per coefficient and vector.
//
// WRAM is an arena with a checked capacity. Kernels take their scratch
// from TaskletCtx.WRAM, sized to the data they own, and a request past
// WRAMWords is a kernel error. Tasklets of a DPU run one after another
// and each starts the arena over, so each may use up to a whole WRAM;
// the kernels' budgets are written to that assumption.
package pim

import "repro/internal/limb32"

// CostModel maps limb32 instruction classes to dynamic DPU instructions
// and prices DMA transfers.
type CostModel struct {
	// Mul32Instr is the instruction count of one 32×32→64 multiply. The
	// DPU has an 8×8 hardware multiplier only; the compiler emits a
	// shift-and-add loop for wider products (paper §3 footnote 1). 32 is
	// the loop-iteration bound; ablations re-price it (e.g. 3 for the
	// "future PIM with native 32-bit multiply" hypothesis of Takeaway 2).
	Mul32Instr int

	// DMALatency and DMACyclesPerByte price an MRAM↔WRAM DMA of b bytes at
	// DMALatency + b·DMACyclesPerByte cycles. Defaults give ~625 MB/s of
	// streaming MRAM bandwidth per DPU at 425 MHz, matching PrIM.
	DMALatency       int
	DMACyclesPerByte float64

	// RevolverDepth is the pipeline revolver depth: the minimum spacing in
	// cycles between two instructions of the same tasklet.
	RevolverDepth int
}

// DefaultCostModel returns the first-generation UPMEM cost model.
func DefaultCostModel() *CostModel {
	return &CostModel{
		Mul32Instr:       32,
		DMALatency:       77,
		DMACyclesPerByte: 0.68,
		RevolverDepth:    11,
	}
}

// NativeMul32CostModel is the ablation for Key Takeaway 2: identical to
// the default model but with a single-instruction 32-bit multiplier.
func NativeMul32CostModel() *CostModel {
	c := DefaultCostModel()
	c.Mul32Instr = 3 // issue + 2-cycle multiplier result latency
	return c
}

// InstrFor returns the dynamic instruction count of n operations of class
// op.
func (c *CostModel) InstrFor(op limb32.Op, n int64) int64 {
	if op == limb32.OpMul32 {
		return n * int64(c.Mul32Instr)
	}
	return n
}

// InstrTotal prices a full tally.
func (c *CostModel) InstrTotal(counts *limb32.Counts) int64 {
	var total int64
	for op := limb32.Op(0); op < limb32.NumOps; op++ {
		total += c.InstrFor(op, counts[op])
	}
	return total
}

// DMACycles prices one DMA transfer of b bytes.
func (c *CostModel) DMACycles(b int) int64 {
	return int64(c.DMALatency) + int64(float64(b)*c.DMACyclesPerByte)
}

// SystemConfig describes the PIM platform (defaults: the paper's system).
type SystemConfig struct {
	NumDPUs  int     // 2,524 in the paper's machine
	ClockHz  float64 // 425 MHz
	Tasklets int     // software threads per DPU (max 24)

	// Host↔DPU transfer bandwidths, aggregate across all ranks. PrIM
	// measures ~6.7 GB/s to DPUs and ~4.7 GB/s back on a full system.
	HostToDPUBytesPerSec float64
	DPUToHostBytesPerSec float64

	// LaunchOverheadSec is the fixed host-side cost of starting a kernel
	// across all ranks.
	LaunchOverheadSec float64

	Cost *CostModel
}

// DefaultConfig returns the paper's UPMEM system configuration.
func DefaultConfig() SystemConfig {
	return SystemConfig{
		NumDPUs:              2524,
		ClockHz:              425e6,
		Tasklets:             16,
		HostToDPUBytesPerSec: 6.7e9,
		DPUToHostBytesPerSec: 4.7e9,
		LaunchOverheadSec:    50e-6,
		Cost:                 DefaultCostModel(),
	}
}

// Validate reports configuration errors.
func (c *SystemConfig) Validate() error {
	switch {
	case c.NumDPUs <= 0:
		return errConfig("NumDPUs must be positive")
	case c.ClockHz <= 0:
		return errConfig("ClockHz must be positive")
	case c.Tasklets <= 0 || c.Tasklets > 24:
		return errConfig("Tasklets must be in 1..24")
	case c.Cost == nil:
		return errConfig("Cost model is required")
	}
	return nil
}

type errConfig string

func (e errConfig) Error() string { return "pim: " + string(e) }
