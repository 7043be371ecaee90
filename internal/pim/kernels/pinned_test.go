package kernels

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/limb32"
	"repro/internal/pimsched"
)

// TestSimulatedFiguresArePinned holds every driver's simulated figures —
// the per-class operation tally, priced instructions, DMA cycles and
// critical-path cycles — to the integers the simulator produced when each
// instruction was still ticked, one interface call at a time, straight
// into the DPU's accounting. How the simulator keeps its books is free to
// change; these numbers are the model and are not.
func TestSimulatedFiguresArePinned(t *testing.T) {
	want := map[string]struct {
		counts            limb32.Counts
		instr, dma, cycle int64
	}{
		"add/w1":     {limb32.Counts{192, 0, 85, 0, 0, 938, 277, 192, 0, 0, 277}, 2345, 7056, 2310},
		"sum/w1":     {limb32.Counts{576, 0, 269, 0, 0, 2842, 845, 576, 0, 0, 845}, 7105, 11760, 6875},
		"polymul/w1": {limb32.Counts{91, 9216, 192, 0, 3816, 12854, 12571, 12, 0, 0, 7171}, 173435, 15084, 179850},
		"add/w2":     {limb32.Counts{192, 192, 94, 94, 0, 1528, 572, 192, 0, 0, 572}, 3820, 8640, 3850},
		"sum/w2":     {limb32.Counts{576, 576, 293, 293, 0, 4628, 1738, 576, 0, 0, 1738}, 11570, 14400, 11330},
		"polymul/w2": {limb32.Counts{15459, 29979, 6336, 9684, 13680, 31884, 25158, 12588, 5952, 0, 15102}, 599118, 19188, 623656},
		"add/w4":     {limb32.Counts{192, 576, 94, 282, 0, 2672, 1144, 192, 0, 0, 1144}, 6680, 11808, 7040},
		"sum/w4":     {limb32.Counts{576, 1728, 284, 852, 0, 8032, 3440, 576, 0, 0, 3440}, 20080, 19680, 20020},
		"polymul/w4": {limb32.Counts{52317, 95319, 18624, 51024, 36576, 192744, 142452, 32160, 11160, 0, 86964}, 1862412, 27360, 1932172},
		"polymul/w8": {limb32.Counts{196691, 499701, 192, 34086, 232988, 667952, 272536, 11010, 24388, 0, 301640}, 9473028, 43668, 9827136},
		"ntt":        {limb32.Counts{6912, 0, 15360, 0, 25344, 0, 0, 22272, 16896, 0, 0}, 901632, 9036, 1652992},

		// Centred 27-bit coefficients lifted to 2²⁵⁶−189, the shape a PIM
		// Mul's tensor products ran on under the lift.
		"polymul/w8-centered": {limb32.Counts{114258, 315475, 192, 28758, 144636, 413469, 172621, 9306, 22790, 0, 214464}, 5928901, 43668, 7259516},
		// The same at 54 and 109 bits, and with a's schoolbook rows on
		// the band where b's lower words decide whether they ripple.
		"polymul/w8-centered54":  {limb32.Counts{122207, 330431, 192, 28209, 151962, 436118, 180286, 9171, 22392, 0, 222016}, 6223022, 43668, 6963066},
		"polymul/w8-centered109": {limb32.Counts{146013, 383511, 192, 31260, 179160, 507044, 206588, 10116, 23484, 0, 248520}, 7299064, 43668, 7939932},
		"polymul/w8-undecided":   {limb32.Counts{53339, 184384, 192, 25707, 80318, 234251, 107571, 8345, 21790, 0, 150896}, 3365867, 43668, 3739186},
	}
	check := func(name string, rep *pimsched.Report, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w := want[name]
		if rep.Counts != w.counts {
			t.Errorf("%s: counts %v, pinned %v", name, rep.Counts, w.counts)
		}
		if rep.TotalInstr != w.instr || rep.TotalDMACycles != w.dma || rep.KernelCycles != w.cycle {
			t.Errorf("%s: instr/dma/cycles %d/%d/%d, pinned %d/%d/%d", name,
				rep.TotalInstr, rep.TotalDMACycles, rep.KernelCycles, w.instr, w.dma, w.cycle)
		}
	}

	topo := pimsched.Topology{Ranks: 2, DPUsPerRank: 4}
	// Width 8 is the 256-bit lift modulus of the benchmark's traced kernel
	// row (a PIM Mul's tensor ran under it before it became one-limb
	// residue products); the add kernel stops at 4 limbs.
	for _, w := range []int{1, 2, 4, 8} {
		mod := modulusFor(t, w)
		rng := rand.New(rand.NewSource(int64(1500 + w)))
		a, b, c := randVec(rng, 192, mod), randVec(rng, 192, mod), randVec(rng, 192, mod)
		sched := testSched(t, topo, 3)
		if w <= 4 {
			_, rep, err := RunVectorAddSched(sched, a, b, w, mod.Q)
			check(fmt.Sprintf("add/w%d", w), rep, err)
			_, rep, err = RunVectorSumSched(sched, [][]uint32{a, b, c, a}, w, mod.Q)
			check(fmt.Sprintf("sum/w%d", w), rep, err)
		}
		_, rep, err := RunVectorPolyMulSched(sched, a, b, 16, w, mod.Q)
		check(fmt.Sprintf("polymul/w%d", w), rep, err)
	}

	// Centered coefficients lifted to 2²⁵⁶−189, as a PIM Mul's tensor
	// once ran them: a positive one has zero high limbs (skipped
	// schoolbook rows), a negative one is 2²⁵⁶−189 minus a small value,
	// so b's top word is 0 or 2⁶⁴−1. Uniform 256-bit operands never reach
	// the skipped-row path.
	lift := modulusFor(t, 8)
	centered := func(rng *rand.Rand, small *big.Int) []uint32 {
		half := new(big.Int).Rsh(small, 1)
		out := make([]uint32, 192*lift.W)
		for i := 0; i < 192; i++ {
			c := new(big.Int).Rand(rng, small)
			if c.Cmp(half) > 0 {
				c.Add(c.Sub(c, small), lift.QBig)
			}
			copy(out[i*lift.W:(i+1)*lift.W], limb32.FromBig(c, lift.W))
		}
		return out
	}
	for _, c := range []struct {
		name string
		w    int
		seed int64
	}{{"polymul/w8-centered", 1, 1508}, {"polymul/w8-centered54", 2, 1509}, {"polymul/w8-centered109", 4, 1510}} {
		small := modulusFor(t, c.w).QBig
		rng := rand.New(rand.NewSource(c.seed))
		_, rep, err := RunVectorPolyMulSched(testSched(t, topo, 3), centered(rng, small), centered(rng, small), 16, lift.W, lift.Q)
		check(c.name, rep, err)
	}

	// Rows whose ripple b's top word cannot decide: a_r·2³² + a_(r−1) = h
	// sits between the two thresholds for b₃ = 2⁶⁴−1, so whether row r
	// ripples depends on b's lower words. Each a is 2^(32r) for a random
	// r, half of them plus a random value below 2^(32(r−1)); b is a
	// centred 27-bit lift or 2²⁵⁶ minus a value of up to 150 bits.
	h := uint64(1) << 32
	if lo, hi := rippleThresholds(h); lo > 1<<64-1 || hi < 1<<64-1 {
		t.Fatalf("h = %#x is decided against b₃ = 2⁶⁴−1 (thresholds %#x, %#x)", h, lo, hi)
	}
	rng := rand.New(rand.NewSource(1511))
	ua, ub := make([]uint32, 192*lift.W), centered(rng, modulusFor(t, 1).QBig)
	for i := 0; i < 192; i++ {
		r := rng.Intn(8)
		v := new(big.Int).Lsh(new(big.Int).SetUint64(h>>32), uint(32*r))
		if r >= 2 && i%2 == 0 {
			v.Add(v, new(big.Int).Rand(rng, pow2(32*(r-1))))
		}
		copy(ua[i*lift.W:], limb32.FromBig(v, lift.W))
		if i%3 == 0 {
			neg := new(big.Int).Sub(pow2(256), new(big.Int).Rand(rng, pow2(150)))
			copy(ub[i*lift.W:(i+1)*lift.W], limb32.FromBig(neg, lift.W))
		}
	}
	_, rep, err := RunVectorPolyMulSched(testSched(t, topo, 3), ua, ub, 16, lift.W, lift.Q)
	check("polymul/w8-undecided", rep, err)

	plan := testPlan(t, 64)
	rng = rand.New(rand.NewSource(1515))
	a, b := make([]uint32, 12*64), make([]uint32, 12*64)
	for i := range a {
		a[i] = uint32(rng.Uint64() % plan.Q)
		b[i] = uint32(rng.Uint64() % plan.Q)
	}
	_, rep, err = RunNTTPolyMulSched(testSched(t, topo, 3), plan, a, b)
	check("ntt", rep, err)
}
