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

// launch runs kernel on DPUs [0, active) through LaunchOn and fails on
// the first per-DPU error: the all-or-nothing launch these tests want.
func launch(sys *System, active int, kernel KernelFunc) (*Report, error) {
	ids := make([]int, active)
	kernels := make([]KernelFunc, active)
	for i := range ids {
		ids[i], kernels[i] = i, kernel
	}
	rep, errs := sys.LaunchOn(ids, kernels)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
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
	if len(d.mram) < 1024 {
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
	rep, err := launch(sys, 4, func(ctx *TaskletCtx) error {
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
		rep, err := launch(sys, 1, func(ctx *TaskletCtx) error {
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
	rep, err := launch(sys, 1, func(ctx *TaskletCtx) error {
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
	_, err := launch(sys, 2, func(ctx *TaskletCtx) error {
		if ctx.dpu.ID == 1 && ctx.TaskletID == 1 {
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
			if ctx.dpu.ID == 1 && ctx.TaskletID == 1 {
				ctx.MRAMRead(4, make([]uint32, 8))
			}
			return nil
		},
		"nil kernel": nil,
	}
	for name, kernel := range kernels {
		rep, err := launch(sys, 2, kernel)
		if err == nil || rep != nil {
			t.Fatalf("%s: launch returned (%v, %v), want the panic as an error", name, rep, err)
		}
		if IsFault(err) {
			t.Errorf("%s: panic reported as a retryable fault: %v", name, err)
		}
		if name == "out-of-bounds DMA" && !strings.Contains(err.Error(), "DPU 1 tasklet 1") {
			t.Errorf("%s: error does not name the DPU and tasklet: %v", name, err)
		}
	}
	rep, err := launch(sys, 2, func(ctx *TaskletCtx) error {
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
	_, err := launch(sys, 1, func(ctx *TaskletCtx) error {
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
	_, err = launch(sys, 1, func(ctx *TaskletCtx) error {
		_, err := ctx.WRAM(WRAMWords + 1)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "WRAM") {
		t.Fatalf("kernel asking for more than WRAMWords: err = %v", err)
	}
}

// TestLaunchWordsLastOneLaunch: within a launch every tasklet of a DPU
// gets the same launch words and only the first is told to fill them;
// the next launch starts fresh again, on each DPU apart; and MRAMView
// shows the MRAM image without charging a DMA, and refuses a range
// outside it.
func TestLaunchWordsLastOneLaunch(t *testing.T) {
	sys := testSystem(t, 2, 3)
	for d := range sys.DPUs {
		if err := sys.CopyToDPU(d, 0, []uint32{uint32(10 + d), 7, 7, 7}); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 2; run++ {
		rep, err := launch(sys, 2, func(ctx *TaskletCtx) error {
			words, fresh := ctx.LaunchWords(4)
			if fresh != (ctx.TaskletID == 0) {
				t.Errorf("run %d DPU %d tasklet %d: fresh = %v", run, ctx.dpu.ID, ctx.TaskletID, fresh)
			}
			view := ctx.MRAMView(0, 4)
			if fresh {
				words[0] = uint64(view[0])<<8 | uint64(run)
			} else if want := uint64(view[0])<<8 | uint64(run); words[0] != want {
				t.Errorf("run %d DPU %d tasklet %d: launch word %#x, tasklet 0 left %#x",
					run, ctx.dpu.ID, ctx.TaskletID, words[0], want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalDMACycles != 0 {
			t.Errorf("run %d: MRAMView charged %d DMA cycles", run, rep.TotalDMACycles)
		}
	}
	_, err := launch(sys, 1, func(ctx *TaskletCtx) error {
		ctx.MRAMView(1, 4)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("MRAMView past the image: err = %v", err)
	}
}

// TestChargeDMAIsNTransfers: ChargeDMA(n, bytes) charges exactly what n
// MRAMRead calls of bytes bytes charge — DMA cycles and the kernel
// cycles they bind — n = 0 charges nothing, and a negative count or a
// transfer larger than WRAM is a kernel error.
func TestChargeDMAIsNTransfers(t *testing.T) {
	sys := testSystem(t, 1, 2)
	sys.DPUs[0].EnsureMRAM(WRAMWords)
	dmaOf := func(kernel KernelFunc) (dma, cycles int64) {
		t.Helper()
		rep, err := launch(sys, 1, kernel)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalDMACycles, rep.KernelCycles
	}
	for _, words := range []int{1, 16, 1364, WRAMWords} {
		for _, n := range []int{0, 1, 3, 63} {
			readDMA, readCycles := dmaOf(func(ctx *TaskletCtx) error {
				buf := make([]uint32, words)
				for i := 0; i < n; i++ {
					ctx.MRAMRead(0, buf)
				}
				return nil
			})
			dma, cycles := dmaOf(func(ctx *TaskletCtx) error {
				ctx.ChargeDMA(n, 4*words)
				return nil
			})
			if dma != readDMA || cycles != readCycles {
				t.Errorf("ChargeDMA(%d, %d): DMA/kernel cycles %d/%d, %d MRAMReads charge %d/%d",
					n, 4*words, dma, cycles, n, readDMA, readCycles)
			}
			if n == 0 && dma != 0 {
				t.Errorf("ChargeDMA(0, %d) charged %d DMA cycles", 4*words, dma)
			}
		}
	}
	for _, c := range []struct{ n, bytes int }{{-1, 64}, {1, 4*WRAMWords + 4}} {
		_, err := launch(sys, 1, func(ctx *TaskletCtx) error {
			ctx.ChargeDMA(c.n, c.bytes)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "ChargeDMA") {
			t.Errorf("ChargeDMA(%d, %d): err = %v", c.n, c.bytes, err)
		}
	}
}

func TestLaunchValidatesActiveDPUs(t *testing.T) {
	sys := testSystem(t, 2, 2)
	nop := func(*TaskletCtx) error { return nil }
	_, errs := sys.LaunchOn([]int{-1, 0, 2}, []KernelFunc{nop, nop, nop})
	if errs[0] == nil || errs[2] == nil {
		t.Errorf("out-of-range DPU ids accepted: %v", errs)
	}
	if errs[1] != nil {
		t.Errorf("DPU 0 failed next to invalid ids: %v", errs[1])
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
