package pim

import (
	"testing"

	"repro/internal/limb32"
)

func TestKernelEnergyComposition(t *testing.T) {
	sys := testSystem(t, 2, 16)
	sys.DPUs[0].EnsureMRAM(1024)
	sys.DPUs[1].EnsureMRAM(1024)
	rep, err := launch(sys, 2, func(ctx *TaskletCtx) error {
		ctx.Meter().Tick(limb32.OpAdd, 1000)
		if ctx.TaskletID == 0 {
			buf := make([]uint32, 256)
			ctx.MRAMRead(0, buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	em := DefaultEnergyModel()
	total := em.KernelEnergyJoules(rep, &sys.Config)
	if total <= 0 {
		t.Fatal("energy must be positive")
	}
	// Components must each contribute: zeroing a coefficient changes the sum.
	noDyn := *em
	noDyn.PicojoulesPerInstr = 0
	noDMA := *em
	noDMA.PicojoulesPerDMAByte = 0
	noStatic := *em
	noStatic.StaticWatts = 0
	for name, m := range map[string]*EnergyModel{"dyn": &noDyn, "dma": &noDMA, "static": &noStatic} {
		if got := m.KernelEnergyJoules(rep, &sys.Config); got >= total {
			t.Errorf("removing %s energy did not reduce the total (%g >= %g)", name, got, total)
		}
	}
}

func TestMulEnergyDominatesUnderSoftwareMultiplier(t *testing.T) {
	// The energy argument behind Key Takeaway 2: with the shift-and-add
	// multiplier, a kernel of mul32s costs far more energy than one of
	// as many adds.
	em := DefaultEnergyModel()
	energy := func(cost *CostModel, op limb32.Op) float64 {
		sys := testSystem(t, 1, 1)
		sys.Config.Cost = cost
		rep, err := launch(sys, 1, func(ctx *TaskletCtx) error {
			ctx.Meter().Tick(op, 1000)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return em.KernelEnergyJoules(rep, &sys.Config)
	}
	mul, add := energy(DefaultCostModel(), limb32.OpMul32), energy(DefaultCostModel(), limb32.OpAdd)
	if mul <= 10*add {
		t.Errorf("mul32 energy %g should dwarf add energy %g", mul, add)
	}
	if native := energy(NativeMul32CostModel(), limb32.OpMul32); native >= mul/5 {
		t.Errorf("native multiplier should slash mul energy: %g vs %g", native, mul)
	}
}

func TestHostTransferEnergyScalesLinearly(t *testing.T) {
	em := DefaultEnergyModel()
	e1 := em.HostTransferEnergyJoules(1 << 20)
	e2 := em.HostTransferEnergyJoules(2 << 20)
	if e2 != 2*e1 {
		t.Errorf("transfer energy not linear: %g vs %g", e1, e2)
	}
	// Moving a 128-bit ciphertext vector across the host link must cost
	// more than adding it in place (the paper's data-movement argument).
	bytes := int64(20480 * 4096 * 16)
	moveE := em.HostTransferEnergyJoules(bytes)
	// In-place add: ~35 instructions per 16-byte coefficient.
	addE := float64(20480*4096*35) * em.PicojoulesPerInstr * 1e-12
	if moveE <= addE/3 {
		t.Errorf("data movement energy (%g J) should rival compute energy (%g J)", moveE, addE)
	}
}
