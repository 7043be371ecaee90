package pim

import (
	"fmt"

	"repro/internal/limb32"
)

// WRAMWords is the per-DPU working RAM capacity in 32-bit words (64 KB).
// Kernels stage MRAM data through WRAM tiles no larger than this.
const WRAMWords = 64 * 1024 / 4

// MRAMWords is the per-DPU main RAM capacity in 32-bit words (64 MB).
const MRAMWords = 64 * 1024 * 1024 / 4

// DPU models one DRAM Processing Unit: its MRAM bank, its WRAM scratch
// and the cycle accounting of the tasklets that ran on it. MRAM is
// allocated lazily so a 2,524-DPU system does not reserve 158 GB of host
// memory.
type DPU struct {
	ID   int
	mram []uint32
	wram []uint32 // arena behind TaskletCtx.WRAM; grown on demand, never past WRAMWords
	host []uint64 // words behind TaskletCtx.LaunchWords, padded at both ends; grown on demand
	// hostFilled is set by the launch's first LaunchWords call and
	// cleared when the next launch starts.
	hostFilled bool
	dead       bool // permanently failed (fault model); excluded from live sets

	// Accounting for the most recent kernel launch, folded from each
	// tasklet's context when the tasklet returns.
	taskletInstr []int64 // dynamic instructions per tasklet
	taskletDMA   []int64 // DMA cycles issued per tasklet
	counts       limb32.Counts

	// Every tasklet's context in turn: a DPU runs one launch at a time.
	// Its tasklet writes the context on every DMA and charge, while the
	// DPUs, allocated one after another, run side by side on separate
	// processors; the padding keeps the next DPU's fields off the cache
	// line that holds the context's tail.
	ctx TaskletCtx
	_   [64]byte
}

// EnsureMRAM grows the MRAM image to hold at least words 32-bit words.
func (d *DPU) EnsureMRAM(words int) error {
	if words > MRAMWords {
		return fmt.Errorf("pim: DPU %d MRAM request %d words exceeds capacity %d",
			d.ID, words, MRAMWords)
	}
	if len(d.mram) < words {
		grown := make([]uint32, words)
		copy(grown, d.mram)
		d.mram = grown
	}
	return nil
}

// resetAccounting prepares per-tasklet counters for a launch, reusing
// the previous launch's slices.
func (d *DPU) resetAccounting(tasklets int) {
	if cap(d.taskletInstr) < tasklets {
		d.taskletInstr = make([]int64, tasklets)
		d.taskletDMA = make([]int64, tasklets)
	}
	d.taskletInstr = d.taskletInstr[:tasklets]
	d.taskletDMA = d.taskletDMA[:tasklets]
	clear(d.taskletInstr)
	clear(d.taskletDMA)
	d.counts.Reset()
	d.hostFilled = false
}

// run executes kernel as each of the DPU's tasklets in turn and folds
// every tasklet's tally into the DPU's accounting as it returns. This
// is the one place a tally meets the cost model: instruction pricing is
// linear in the per-class counts, so pricing the tasklet's total once
// gives the same integers as pricing each charge as it is made.
//
// A kernel panic — an out-of-bounds DMA, a nil layout — is a bug in the
// kernel or its plan, but it fires on a simulator goroutine no caller
// can guard; it comes back as an ordinary error naming the DPU and
// tasklet, so one bad shard fails its run instead of the process.
func (d *DPU) run(kernel KernelFunc, cost *CostModel, tasklets int) (err error) {
	ctx := &d.ctx
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pim: DPU %d tasklet %d: kernel panic: %v", d.ID, ctx.TaskletID, r)
		}
	}()
	d.resetAccounting(tasklets)
	for t := 0; t < tasklets; t++ {
		*ctx = TaskletCtx{dpu: d, cost: cost, TaskletID: t, NumTasklets: tasklets}
		if err := kernel(ctx); err != nil {
			return fmt.Errorf("pim: DPU %d tasklet %d: %w", d.ID, t, err)
		}
		d.taskletInstr[t] = ctx.instr + cost.InstrTotal(&ctx.counts)
		d.taskletDMA[t] = ctx.dma
		d.counts.Add(&ctx.counts)
	}
	return nil
}

// cycles folds the per-tasklet accounting into the DPU's kernel cycle
// count under the three-roofline model (see package comment).
func (d *DPU) cycles(cost *CostModel) int64 {
	var total, maxTasklet, dma int64
	for i := range d.taskletInstr {
		total += d.taskletInstr[i]
		lat := d.taskletInstr[i] * int64(cost.RevolverDepth)
		if lat > maxTasklet {
			maxTasklet = lat
		}
		dma += d.taskletDMA[i]
	}
	c := total
	if maxTasklet > c {
		c = maxTasklet
	}
	if dma > c {
		c = dma
	}
	return c
}

// TaskletCtx is the execution context handed to kernel code running as
// one tasklet on one DPU. Everything a kernel charges — the limb32 tally
// behind Meter, raw instructions, DMA cycles — accumulates in the context
// itself, which only its own tasklet touches; the DPU sees the totals
// when the tasklet returns.
type TaskletCtx struct {
	dpu         *DPU
	cost        *CostModel
	TaskletID   int
	NumTasklets int

	counts   limb32.Counts // operation tally, priced at fold
	instr    int64         // raw instructions (ChargeInstr)
	dma      int64         // DMA cycles
	wramUsed int           // words of the DPU's WRAM arena handed out
}

// Meter returns the tasklet's tally: kernels pass it to limb32 routines
// (or Tick it directly) to charge arithmetic to this tasklet.
func (c *TaskletCtx) Meter() limb32.Meter { return &c.counts }

// WRAM returns a zeroed scratch buffer of the given size from the DPU's
// working RAM. Buffers are bump-allocated from one arena per DPU that
// every tasklet starts over, so a kernel's scratch costs the host an
// allocation only the first time a DPU needs that much; a tasklet asking
// for more than WRAMWords in total gets an error, as the data would not
// fit the hardware.
func (c *TaskletCtx) WRAM(words int) ([]uint32, error) {
	end := c.wramUsed + words
	if words < 0 || end > WRAMWords {
		return nil, fmt.Errorf("pim: WRAM request of %d words on top of %d exceeds capacity %d",
			words, c.wramUsed, WRAMWords)
	}
	d := c.dpu
	if len(d.wram) < end {
		// Buffers already handed out keep the old array; only this and
		// later requests need the room.
		d.wram = make([]uint32, min(WRAMWords, max(end, 2*len(d.wram))))
	}
	buf := d.wram[c.wramUsed:end:end]
	clear(buf)
	c.wramUsed = end
	return buf, nil
}

// hostPad is the words of padding on each side of a DPU's host words:
// a cache line, so the words of DPUs running side by side never share
// one with each other or with a neighbouring heap object.
const hostPad = 8

// LaunchWords returns n words of host memory owned by the DPU for the
// current launch, for state the host keeps while it simulates a
// kernel's arithmetic and that the modelled DPU does not hold: a
// product kernel's exact convolutions, a sum kernel's folded sums and
// their counts. They live outside the WRAM arena, cost no simulated
// cycle and change no tile size. Every call in one launch, from any of
// the DPU's tasklets, hands out the same words, and every call must ask
// for the same n. fresh is
// true for the launch's first call only: its caller fills the words,
// and the tasklets after it read what it left. Like the WRAM arena the
// words are reused by every launch, so they cost the host an allocation
// only the first time a DPU needs that many; they are not cleared.
//
// The product kernel asks for the most: 2n(W+1) words per pair plus
// its convolution scratch. At n = 4096 a DPU running one pair holds
// 832 KiB of them at W = 2 (192 KiB of products, 640 KiB of scratch),
// 1152 KiB at W = 4 (320 + 832) and 1792 KiB at W = 8 (576 + 1216).
func (c *TaskletCtx) LaunchWords(n int) (words []uint64, fresh bool) {
	d := c.dpu
	if fresh = !d.hostFilled; fresh {
		if len(d.host) < n+2*hostPad {
			d.host = make([]uint64, n+2*hostPad)
		}
		d.hostFilled = true
	} else if len(d.host) < n+2*hostPad {
		panic(fmt.Sprintf("pim: DPU %d LaunchWords(%d) beyond the launch's first request", d.ID, n))
	}
	return d.host[hostPad : hostPad+n : hostPad+n], fresh
}

// MRAMView returns the DPU's MRAM words [off, off+n) for the host's
// simulation of arithmetic on operands the tasklets DMA themselves: it
// charges nothing and moves nothing, and the kernel must not write
// through it. What a tasklet charges for those operands is still its
// own MRAMRead of each tile.
func (c *TaskletCtx) MRAMView(off, n int) []uint32 {
	if off < 0 || n < 0 || off+n > len(c.dpu.mram) {
		panic(fmt.Sprintf("pim: DPU %d MRAM view [%d,%d) out of bounds %d",
			c.dpu.ID, off, off+n, len(c.dpu.mram)))
	}
	return c.dpu.mram[off : off+n : off+n]
}

// MRAMRead DMAs words from MRAM (word offset off) into the WRAM buffer
// dst. The transfer is charged to this tasklet's DMA account.
func (c *TaskletCtx) MRAMRead(off int, dst []uint32) {
	if len(dst) > WRAMWords {
		panic("pim: MRAMRead larger than WRAM")
	}
	if off < 0 || off+len(dst) > len(c.dpu.mram) {
		panic(fmt.Sprintf("pim: DPU %d MRAM read [%d,%d) out of bounds %d",
			c.dpu.ID, off, off+len(dst), len(c.dpu.mram)))
	}
	copy(dst, c.dpu.mram[off:off+len(dst)])
	c.dma += c.cost.DMACycles(4 * len(dst))
}

// MRAMWrite DMAs the WRAM buffer src into MRAM at word offset off.
func (c *TaskletCtx) MRAMWrite(off int, src []uint32) {
	if len(src) > WRAMWords {
		panic("pim: MRAMWrite larger than WRAM")
	}
	if off < 0 || off+len(src) > len(c.dpu.mram) {
		panic(fmt.Sprintf("pim: DPU %d MRAM write [%d,%d) out of bounds %d",
			c.dpu.ID, off, off+len(src), len(c.dpu.mram)))
	}
	copy(c.dpu.mram[off:off+len(src)], src)
	c.dma += c.cost.DMACycles(4 * len(src))
}

// ChargeDMA charges the tasklet n DMA transfers of bytes bytes each
// without moving data: exactly what n MRAMRead or MRAMWrite calls of
// that size charge. A kernel whose values the host computes from
// MRAMView uses it for the tiles its program would have read.
func (c *TaskletCtx) ChargeDMA(n, bytes int) {
	if n < 0 || bytes < 0 || bytes > 4*WRAMWords {
		panic(fmt.Sprintf("pim: ChargeDMA of %d transfers of %d bytes", n, bytes))
	}
	c.dma += int64(n) * c.cost.DMACycles(bytes)
}

// ChargeInstr charges raw dynamic instructions (loop setup, address
// arithmetic) that are not expressed through limb32 operations.
func (c *TaskletCtx) ChargeInstr(n int64) { c.instr += n }
