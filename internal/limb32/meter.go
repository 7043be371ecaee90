// Package limb32 implements fixed-width natural-number arithmetic on
// little-endian base-2³² limbs, the native word size of the UPMEM DPU.
//
// Every routine accepts a Meter — a *Counts, nil for unmetered. A metered
// routine adds to the tally the dynamic instructions the equivalent DPU
// code would execute (register loads, stores, adds with carry, software
// multiplies, loop overhead); host-side callers pass nil and pay nothing.
// This is how the same arithmetic code serves both as the functional
// implementation and as the instruction-count source for the PIM cycle
// model.
//
// The metering contract: a tally is a sum per instruction class and
// nothing else. The order in which a routine charges is free, so routines
// count loop trips, carries and skipped rows in locals and charge each
// class once per call; a tally carries no prices — whoever owns it (the
// PIM simulator, a perf model) prices the totals, once, when it folds
// them. The instruction-by-instruction charging these totals stand for is
// kept as the oracle in this package's tests.
//
// The paper (§3) represents 27-, 54- and 109-bit polynomial coefficients as
// 32-, 64- and 128-bit integers, i.e. 1, 2 and 4 limbs, "because the UPMEM
// PIM system has native support for 32-bit integers". Wider accumulators
// (up to 8 limbs) appear in Barrett reduction and BFV tensor products.
package limb32

// Op identifies a class of dynamic instruction charged to a Meter.
type Op int

// Instruction classes. The split mirrors the UPMEM DPU ISA as characterized
// by the PrIM benchmarks (Gómez-Luna et al., IEEE Access 2022): 32-bit
// add/addc/sub/logic/shift/move are single-cycle pipeline instructions,
// loads and stores from WRAM are single-cycle, and multiplication wider
// than 16 bits is a software shift-and-add loop (OpMul32) whose cost is a
// parameter of the PIM cost model, not of this package.
const (
	OpAdd   Op = iota // 32-bit add (carry-out produced)
	OpAddC            // 32-bit add with carry-in (addc)
	OpSub             // 32-bit subtract (borrow-out produced)
	OpSubB            // 32-bit subtract with borrow-in
	OpMul32           // 32×32→64 multiply (software on the DPU)
	OpLoad            // WRAM→register load
	OpStore           // register→WRAM store
	OpLogic           // and/or/xor/compare
	OpShift           // shift/rotate
	OpMove            // register move / immediate
	OpLoop            // loop bookkeeping (index increment + branch)
	NumOps
)

var opNames = [NumOps]string{
	"add", "addc", "sub", "subb", "mul32",
	"load", "store", "logic", "shift", "move", "loop",
}

// String returns the mnemonic for the instruction class.
func (o Op) String() string {
	if o < 0 || o >= NumOps {
		return "op?"
	}
	return opNames[o]
}

// Counts tallies dynamic instructions per class. The zero value is ready
// to use.
type Counts [NumOps]int64

// Meter is what metered routines charge: a tally, or nil for unmetered.
type Meter = *Counts

// Tick records n dynamic instructions of class op; a nil tally records
// nothing.
func (c *Counts) Tick(op Op, n int) {
	if c != nil {
		c[op] += int64(n)
	}
}

// Total returns the total dynamic instruction count across all classes.
func (c *Counts) Total() int64 {
	var t int64
	for _, v := range c {
		t += v
	}
	return t
}

// Add accumulates another tally into c.
func (c *Counts) Add(d *Counts) {
	for i := range c {
		c[i] += d[i]
	}
}

// Reset zeroes the tally.
func (c *Counts) Reset() { *c = Counts{} }
