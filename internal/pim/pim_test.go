package pim

import (
	"strings"
	"testing"

	"repro/internal/limb32"
)

func testSystem(t *testing.T, dpus, tasklets int) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumDPUs = dpus
	cfg.Tasklets = tasklets
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestConfigValidation(t *testing.T) {
	bad := []SystemConfig{
		{NumDPUs: 0, ClockHz: 1, Tasklets: 1, Cost: DefaultCostModel()},
		{NumDPUs: 1, ClockHz: 0, Tasklets: 1, Cost: DefaultCostModel()},
		{NumDPUs: 1, ClockHz: 1, Tasklets: 0, Cost: DefaultCostModel()},
		{NumDPUs: 1, ClockHz: 1, Tasklets: 25, Cost: DefaultCostModel()},
		{NumDPUs: 1, ClockHz: 1, Tasklets: 1, Cost: nil},
	}
	for i, cfg := range bad {
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewSystem(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestMRAMBounds(t *testing.T) {
	sys := testSystem(t, 1, 1)
	d := sys.DPUs[0]
	if err := d.EnsureMRAM(MRAMWords + 1); err == nil {
		t.Error("MRAM over-allocation accepted")
	}
	if err := d.EnsureMRAM(1024); err != nil {
		t.Fatal(err)
	}
	if len(d.MRAM()) < 1024 {
		t.Error("EnsureMRAM did not grow")
	}
}

func TestCopyRoundTrip(t *testing.T) {
	sys := testSystem(t, 2, 1)
	data := []uint32{1, 2, 3, 4, 5}
	if err := sys.CopyToDPU(1, 10, data); err != nil {
		t.Fatal(err)
	}
	got := make([]uint32, 5)
	if err := sys.CopyFromDPU(1, 10, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("copy round trip: %v != %v", got, data)
		}
	}
	if err := sys.CopyFromDPU(1, 1<<20, got); err == nil {
		t.Error("out-of-bounds copy-out accepted")
	}
}

func TestLaunchChargesInstructions(t *testing.T) {
	sys := testSystem(t, 4, 8)
	rep, err := sys.Launch(4, func(ctx *TaskletCtx) error {
		ctx.Meter().Tick(limb32.OpAdd, 100)
		ctx.Meter().Tick(limb32.OpMul32, 10)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each tasklet: 100 adds + 10 muls × 32 instr = 420; 8 tasklets × 4 DPUs.
	wantPerTasklet := int64(100 + 10*32)
	if rep.TotalInstr != wantPerTasklet*8*4 {
		t.Errorf("TotalInstr = %d, want %d", rep.TotalInstr, wantPerTasklet*32)
	}
	// 8 tasklets < 11: latency-bound → cycles = maxPerTasklet × 11.
	if rep.KernelCycles != wantPerTasklet*11 {
		t.Errorf("KernelCycles = %d, want %d", rep.KernelCycles, wantPerTasklet*11)
	}
	if rep.Counts[limb32.OpAdd] != 100*8*4 {
		t.Errorf("op tally add = %d", rep.Counts[limb32.OpAdd])
	}
}

func TestPipelineSaturationAtEleven(t *testing.T) {
	// The paper's observation 1: performance saturates at ≥11 tasklets.
	perTasklet := int64(1000)
	cyclesAt := func(tasklets int) int64 {
		sys := testSystem(t, 1, tasklets)
		rep, err := sys.Launch(1, func(ctx *TaskletCtx) error {
			ctx.ChargeInstr(perTasklet)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.KernelCycles
	}
	// With a fixed per-tasklet load, total work grows with tasklet count,
	// so compare throughput: work/cycles.
	var prev float64
	for _, tk := range []int{1, 2, 4, 8, 11, 16, 24} {
		cyc := cyclesAt(tk)
		throughput := float64(int64(tk)*perTasklet) / float64(cyc)
		if tk <= 11 && throughput < prev {
			t.Errorf("throughput dropped below %d tasklets: %f < %f", tk, throughput, prev)
		}
		if tk >= 11 && throughput != 1.0 {
			t.Errorf("tasklets=%d: throughput %f, want 1.0 (saturated pipeline)", tk, throughput)
		}
		prev = throughput
	}
	// 1 tasklet must be exactly 11× slower than saturation per instruction.
	if c1, c11 := cyclesAt(1), cyclesAt(11); c1 != perTasklet*11 || c11 != perTasklet*11 {
		t.Errorf("revolver model wrong: c1=%d c11=%d want both %d", c1, c11, perTasklet*11)
	}
}

func TestDMARoofline(t *testing.T) {
	sys := testSystem(t, 1, 16)
	words := 4096
	sys.DPUs[0].EnsureMRAM(2 * words)
	rep, err := sys.Launch(1, func(ctx *TaskletCtx) error {
		if ctx.TaskletID != 0 {
			return nil
		}
		buf := make([]uint32, words)
		ctx.MRAMRead(0, buf)
		ctx.MRAMWrite(words, buf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cost := sys.Config.Cost
	wantDMA := 2 * cost.DMACycles(4*words)
	if rep.TotalDMACycles != wantDMA {
		t.Errorf("TotalDMACycles = %d, want %d", rep.TotalDMACycles, wantDMA)
	}
	// No compute: the DMA term must be the binding roofline.
	if rep.KernelCycles != wantDMA {
		t.Errorf("KernelCycles = %d, want DMA-bound %d", rep.KernelCycles, wantDMA)
	}
}

func TestLaunchErrorPropagates(t *testing.T) {
	sys := testSystem(t, 2, 2)
	_, err := sys.Launch(2, func(ctx *TaskletCtx) error {
		if ctx.DPUID() == 1 && ctx.TaskletID == 1 {
			return errConfig("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("kernel error not propagated")
	}
}

// TestKernelPanicBecomesLaunchError: a kernel that panics — here an
// out-of-bounds DMA on one tasklet of one DPU — does so on a simulator
// goroutine no caller can guard. The launch must hand it back as an
// ordinary error naming the DPU and tasklet, not a fault (a retry would
// panic again), and leave the system usable.
func TestKernelPanicBecomesLaunchError(t *testing.T) {
	sys := testSystem(t, 2, 2)
	for d := range sys.DPUs {
		if err := sys.DPUs[d].EnsureMRAM(8); err != nil {
			t.Fatal(err)
		}
	}
	kernels := map[string]KernelFunc{
		"out-of-bounds DMA": func(ctx *TaskletCtx) error {
			if ctx.DPUID() == 1 && ctx.TaskletID == 1 {
				ctx.MRAMRead(4, make([]uint32, 8))
			}
			return nil
		},
		"nil kernel": nil,
	}
	for name, kernel := range kernels {
		rep, err := sys.Launch(2, kernel)
		if err == nil || rep != nil {
			t.Fatalf("%s: Launch returned (%v, %v), want the panic as an error", name, rep, err)
		}
		if IsFault(err) {
			t.Errorf("%s: panic reported as a retryable fault: %v", name, err)
		}
		if name == "out-of-bounds DMA" && !strings.Contains(err.Error(), "DPU 1 tasklet 1") {
			t.Errorf("%s: error does not name the DPU and tasklet: %v", name, err)
		}
	}
	rep, err := sys.Launch(2, func(ctx *TaskletCtx) error {
		ctx.ChargeInstr(5)
		return nil
	})
	if err != nil || rep.TotalInstr != 2*2*5 || len(sys.LiveDPUIDs()) != 2 {
		t.Fatalf("system unusable after a kernel panic: report %+v, err %v, live %v", rep, err, sys.LiveDPUIDs())
	}
}

// TestWRAMIsACheckedArena: scratch comes zeroed, distinct buffers do not
// overlap, every tasklet starts over, and a tasklet asking for more than
// the DPU has gets an error rather than memory the hardware lacks.
func TestWRAMIsACheckedArena(t *testing.T) {
	sys := testSystem(t, 1, 3)
	_, err := sys.Launch(1, func(ctx *TaskletCtx) error {
		a, err := ctx.WRAM(100)
		if err != nil {
			return err
		}
		b, err := ctx.WRAM(WRAMWords - 100)
		if err != nil {
			return err
		}
		for _, buf := range [][]uint32{a, b} {
			for i, v := range buf {
				if v != 0 {
					t.Errorf("tasklet %d: WRAM word %d not zeroed: %#x", ctx.TaskletID, i, v)
					break
				}
			}
		}
		for i := range a {
			a[i] = 0xaaaaaaaa
		}
		for i := range b {
			b[i] = 0xbbbbbbbb
		}
		if a[99] != 0xaaaaaaaa || len(a) != 100 || cap(a) != 100 {
			t.Errorf("tasklet %d: buffers overlap or can grow into each other", ctx.TaskletID)
		}
		if _, err := ctx.WRAM(1); err == nil {
			t.Errorf("tasklet %d: request past WRAMWords accepted", ctx.TaskletID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Launch(1, func(ctx *TaskletCtx) error {
		_, err := ctx.WRAM(WRAMWords + 1)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "WRAM") {
		t.Fatalf("kernel asking for more than WRAMWords: err = %v", err)
	}
}

func TestLaunchValidatesActiveDPUs(t *testing.T) {
	sys := testSystem(t, 2, 2)
	if _, err := sys.Launch(0, func(*TaskletCtx) error { return nil }); err == nil {
		t.Error("activeDPUs=0 accepted")
	}
	if _, err := sys.Launch(3, func(*TaskletCtx) error { return nil }); err == nil {
		t.Error("activeDPUs>NumDPUs accepted")
	}
}

func TestTransferAccounting(t *testing.T) {
	sys := testSystem(t, 1, 1)
	data := make([]uint32, 1000)
	if err := sys.CopyToDPU(0, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := sys.CopyFromDPU(0, 0, data[:250]); err != nil {
		t.Fatal(err)
	}
	if in, out := sys.TransferBytes(); in != 4000 || out != 1000 {
		t.Errorf("TransferBytes = (%d, %d), want (4000, 1000)", in, out)
	}
	if err := sys.CopyFromDPU(0, 900, data[:250]); err == nil {
		t.Error("copy-out beyond MRAM accepted")
	}
}

func TestPartition(t *testing.T) {
	// Covers all items exactly once, in order.
	for _, c := range []struct{ items, workers int }{
		{10, 3}, {3, 10}, {16, 16}, {0, 4}, {100, 7},
	} {
		last := 0
		for w := 0; w < c.workers; w++ {
			s, e := Partition(c.items, c.workers, w)
			if s != last {
				t.Fatalf("items=%d workers=%d w=%d: gap (start %d, want %d)", c.items, c.workers, w, s, last)
			}
			if e < s {
				t.Fatalf("negative shard")
			}
			last = e
		}
		if last != c.items {
			t.Fatalf("items=%d workers=%d: covered %d", c.items, c.workers, last)
		}
	}
}

func TestCostModels(t *testing.T) {
	def := DefaultCostModel()
	nat := NativeMul32CostModel()
	if def.InstrFor(limb32.OpMul32, 1) != 32 {
		t.Errorf("default mul32 cost = %d", def.InstrFor(limb32.OpMul32, 1))
	}
	if nat.InstrFor(limb32.OpMul32, 1) >= def.InstrFor(limb32.OpMul32, 1) {
		t.Error("native multiplier model must be cheaper")
	}
	if def.InstrFor(limb32.OpAdd, 5) != 5 {
		t.Error("adds are single-cycle")
	}
	var counts limb32.Counts
	counts[limb32.OpAdd] = 10
	counts[limb32.OpMul32] = 2
	if got := def.InstrTotal(&counts); got != 10+64 {
		t.Errorf("InstrTotal = %d, want 74", got)
	}
	wantDMAOnKB := int64(77) + int64(float64(1024)*def.DMACyclesPerByte)
	if def.DMACycles(1024) != wantDMAOnKB {
		t.Errorf("DMACycles(1024) = %d", def.DMACycles(1024))
	}
}
