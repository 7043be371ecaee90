package pim

// Energy model. The paper motivates PIM partly through the energy cost of
// data movement (§2: "it is challenging to efficiently offset the
// performance and energy expenses incurred when transferring large
// amounts of data"); this extension quantifies it. Constants follow the
// standard architecture rule of thumb that moving data costs order-of-
// magnitude more than computing on it (Horowitz, ISSCC 2014), scaled to
// DRAM-process logic.

// EnergyModel prices simulated activity in joules.
type EnergyModel struct {
	// PicojoulesPerInstr is the DPU core energy per dispatched
	// instruction (DRAM-process logic is less efficient than CMOS logic;
	// ~10 pJ per 32-bit operation).
	PicojoulesPerInstr float64
	// PicojoulesPerDMAByte is the MRAM→WRAM transfer energy (on-chip,
	// short wires: ~2 pJ/B).
	PicojoulesPerDMAByte float64
	// PicojoulesPerHostByte is the host↔DPU transfer energy across the
	// DIMM interface: DDR4 access energy is ~15 pJ/bit ≈ 120 pJ/B — the
	// off-chip cost PIM avoids for resident data.
	PicojoulesPerHostByte float64
	// StaticWatts is the per-DPU static power while a kernel runs.
	StaticWatts float64
}

// DefaultEnergyModel returns the documented constants.
func DefaultEnergyModel() *EnergyModel {
	return &EnergyModel{
		PicojoulesPerInstr:    10,
		PicojoulesPerDMAByte:  2,
		PicojoulesPerHostByte: 120,
		StaticWatts:           0.05,
	}
}

// KernelEnergyJoules estimates the energy of a kernel launch from its
// report: dynamic instruction energy + DMA energy + static energy over
// the kernel duration for the active DPUs.
func (e *EnergyModel) KernelEnergyJoules(rep *Report, cfg *SystemConfig) float64 {
	dyn := float64(rep.TotalInstr) * e.PicojoulesPerInstr * 1e-12
	// DMA cycles → bytes: invert the linear cost model's slope (the
	// latency term carries negligible energy).
	bytesMoved := float64(rep.TotalDMACycles) / cfg.Cost.DMACyclesPerByte
	dma := bytesMoved * e.PicojoulesPerDMAByte * 1e-12
	static := e.StaticWatts * float64(rep.ActiveDPUs) * (float64(rep.KernelCycles) / cfg.ClockHz)
	return dyn + dma + static
}

// HostTransferEnergyJoules estimates the energy of moving b bytes across
// the host↔DPU interface.
func (e *EnergyModel) HostTransferEnergyJoules(bytes int64) float64 {
	return float64(bytes) * e.PicojoulesPerHostByte * 1e-12
}
