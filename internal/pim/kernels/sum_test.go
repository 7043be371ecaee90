package kernels

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/limb32"
	"repro/internal/pim"
	"repro/internal/pimsched"
)

// checkAdd holds the add kernel — the sum of [a, b] through the
// word-level fold — to the loop of limb32.AddMod it stands for, over the
// W-limb coefficients of a and b: the same output limbs and the same
// full tally. The coefficients are split between two tasklets, each
// charging its own share, as a DPU's tasklets do.
func checkAdd(t *testing.T, name string, q limb32.Nat, a, b []uint32) {
	t.Helper()
	w := len(q)
	var want limb32.Counts
	wantOut := make([]uint32, len(a))
	for i := 0; i < len(a); i += w {
		limb32.AddMod(wantOut[i:i+w], a[i:i+w], b[i:i+w], q, &want)
	}
	got, rep, err := RunVectorAddSched(testSched(t, pimsched.FitTopology(1), 2), a, b, w, q)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if rep.Counts != want {
		t.Errorf("%s: tally %v, limb32.AddMod charges %v", name, rep.Counts, want)
	}
	for i := range wantOut {
		if got[i] != wantOut[i] {
			t.Fatalf("%s: coefficient %d limb %d = %#x, limb32.AddMod gives %#x",
				name, i/w, i%w, got[i], wantOut[i])
		}
	}
}

// TestAddRunsMatchLimb32 pins the add kernel to limb32.AddMod where its
// word-level fold could go wrong, at each width W it serves: sums that
// carry out of 32·W bits (only a full-width modulus reaches them —
// 2³² − 5, 2⁶⁴ − 59, 2¹²⁸ − 159; the presets never carry), sums on
// either side of q and equal to it, sums that agree with q in their top
// one to W − 1 limbs and differ from it at the top or the bottom bit of
// the next, zero operands and random ones.
func TestAddRunsMatchLimb32(t *testing.T) {
	rng := rand.New(rand.NewSource(3901))
	one := big.NewInt(1)
	moduli := []struct {
		name string
		q    *big.Int
		w    int
	}{
		{"q27", modulusFor(t, 1).QBig, 1},
		{"q2^32-5", new(big.Int).Sub(pow2(32), big.NewInt(5)), 1},
		{"q54", modulusFor(t, 2).QBig, 2},
		{"q2^64-59", new(big.Int).Sub(pow2(64), big.NewInt(59)), 2},
		{"q109", modulusFor(t, 4).QBig, 4},
		{"q2^128-159", new(big.Int).Sub(pow2(128), big.NewInt(159)), 4},
		{"q2^127+2^64+1", new(big.Int).Add(new(big.Int).Add(pow2(127), pow2(64)), one), 4},
	}
	for _, mod := range moduli {
		w, qb := mod.w, mod.q
		bits := 32 * w
		q := limbs(qb, w)
		maxSum := new(big.Int).Sub(new(big.Int).Lsh(qb, 1), big.NewInt(2))
		targets := map[string]*big.Int{
			"s=0":                             new(big.Int),
			"s=q-1":                           new(big.Int).Sub(qb, one),
			"s=q":                             new(big.Int).Set(qb),
			"s=q+1":                           new(big.Int).Add(qb, one),
			"s=2q-2":                          maxSum,
			fmt.Sprintf("s=2^%d-1", bits):     new(big.Int).Sub(pow2(bits), one),
			fmt.Sprintf("s=2^%d", bits):       pow2(bits),
			fmt.Sprintf("s=2^%d+(q-1)", bits): new(big.Int).Add(pow2(bits), new(big.Int).Sub(qb, one)),
		}
		// s agrees with q in its top k limbs and differs in limb w−1−k:
		// at that limb's top bit, its bottom bit, or with the lower limbs
		// all zero or all ones. A sum of 2^(32w) or more also carries out
		// and must not be compared at all.
		for k := 1; k < w; k++ {
			low := 32 * (w - k)
			top := new(big.Int).Lsh(new(big.Int).Rsh(qb, uint(low)), uint(low))
			for _, s := range []struct {
				name string
				v    *big.Int
			}{
				{"top bit flipped", new(big.Int).Xor(qb, pow2(low-1))},
				{"bottom bit flipped", new(big.Int).Xor(qb, pow2(low-32))},
				{"lower limbs zero", top},
				{"lower limbs ones", new(big.Int).Add(top, new(big.Int).Sub(pow2(low), one))},
				{"carried, lower limbs zero", new(big.Int).Add(pow2(bits), top)},
			} {
				targets[fmt.Sprintf("top %d limbs of q, %s", k, s.name)] = s.v
			}
		}
		for tname, target := range targets {
			if target.Cmp(maxSum) > 0 {
				continue // no two residues below q sum to it
			}
			// Each target as three splits: halves, and a or b at q−1
			// (or at the target itself when it is below q).
			var a, b []uint32
			aHi := new(big.Int).Sub(qb, one)
			if target.Cmp(aHi) < 0 {
				aHi.Set(target)
			}
			half := new(big.Int).Rsh(target, 1)
			for _, x := range []*big.Int{half, aHi, new(big.Int).Sub(target, aHi)} {
				y := new(big.Int).Sub(target, x)
				a = append(a, limbs(x, w)...)
				b = append(b, limbs(y, w)...)
			}
			checkAdd(t, fmt.Sprintf("%s %s", mod.name, tname), q, a, b)
		}
		// Zero operands and random residues.
		var a, b []uint32
		for i := 0; i < 200; i++ {
			x, y := new(big.Int).Rand(rng, qb), new(big.Int).Rand(rng, qb)
			switch i % 10 {
			case 0:
				x.SetInt64(0)
			case 1:
				y.SetInt64(0)
			case 2:
				x.SetInt64(0)
				y.SetInt64(0)
			}
			a = append(a, limbs(x, w)...)
			b = append(b, limbs(y, w)...)
		}
		checkAdd(t, mod.name+" random", q, a, b)
	}
}

// TestVectorSumRejectsBadWidths: the fold holds a coefficient in 128
// bits, so a width outside 1 ≤ W ≤ 4 is refused with an error, before
// any shard runs, by the sum and the addition alike.
func TestVectorSumRejectsBadWidths(t *testing.T) {
	sched := testSched(t, pimsched.FitTopology(1), 2)
	for _, w := range []int{-1, 0, 5, 8} {
		q := limb32.Nat{0xfffffffb}
		if w > 0 {
			q = make(limb32.Nat, w)
			q[w-1] = 1 << 31
		}
		a, b := make([]uint32, 40), make([]uint32, 40) // 40 is a multiple of 5 and 8
		if _, _, err := RunVectorSumSched(sched, [][]uint32{a, b, a}, w, q); err == nil {
			t.Errorf("sum of %d-limb coefficients accepted", w)
		}
		if _, _, err := RunVectorAddSched(sched, a, b, w, q); err == nil {
			t.Errorf("addition of %d-limb coefficients accepted", w)
		}
	}
}

// refVectorSum is the per-tasklet program VectorSum simulates: each
// tasklet DMAs every vector's tile of its coefficients and adds it into
// its accumulator through limb32.AddMod. Its tiles, WRAM carve, MRAM
// layout, DMAs and instruction charges are the kernel's.
func refVectorSum(l VecSumLayout) pim.KernelFunc {
	return func(ctx *pim.TaskletCtx) error {
		start, end := pim.Partition(l.Coeffs, ctx.NumTasklets, ctx.TaskletID)
		if start >= end {
			return nil
		}
		w := l.W
		tile := max(1, min(pim.WRAMWords/4/(3*w), end-start))
		wram, err := ctx.WRAM(2 * tile * w)
		if err != nil {
			return err
		}
		acc, buf := wram[:tile*w], wram[tile*w:]
		m := ctx.Meter()
		for c := start; c < end; c += tile {
			cnt := min(tile, end-c)
			ctx.MRAMRead(c*w, acc[:cnt*w])
			for v := 1; v < l.M; v++ {
				ctx.MRAMRead((v*l.Coeffs+c)*w, buf[:cnt*w])
				for i := 0; i < cnt*w; i += w {
					limb32.AddMod(acc[i:i+w], acc[i:i+w], buf[i:i+w], l.Q, m)
				}
				ctx.ChargeInstr(int64(2 * cnt))
			}
			ctx.MRAMWrite((l.M*l.Coeffs+c)*w, acc[:cnt*w])
		}
		return nil
	}
}

// sumOperands returns the operand shapes TestVectorSumMatchesPerTaskletKernel
// sums: m vectors of count coefficients below q each, all zero, all
// q − 1, uniform residues, and chains whose running sum, before its
// reduction, hits q and q − 1 in turn wherever the previous sum allows.
func sumOperands(rng *rand.Rand, qb *big.Int, w, m, count int) map[string][][]uint32 {
	one := big.NewInt(1)
	qm1 := new(big.Int).Sub(qb, one)
	gen := func(f func(v, i int) *big.Int) [][]uint32 {
		vecs := make([][]uint32, m)
		for v := range vecs {
			vecs[v] = make([]uint32, count*w)
			for i := 0; i < count; i++ {
				copy(vecs[v][i*w:], limbs(f(v, i), w))
			}
		}
		return vecs
	}
	sums := make([]*big.Int, count)
	chains := func(v, i int) *big.Int {
		if v == 0 {
			sums[i] = new(big.Int).Rand(rng, qb)
			return sums[i]
		}
		target := qb
		if (v+i)%2 == 1 {
			target = qm1
		}
		y := new(big.Int).Sub(target, sums[i])
		if y.Sign() < 0 || y.Cmp(qb) >= 0 {
			y.Rand(rng, qb)
		}
		sums[i].Add(sums[i], y).Mod(sums[i], qb)
		return y
	}
	return map[string][][]uint32{
		"zero":        gen(func(int, int) *big.Int { return new(big.Int) }),
		"q-1":         gen(func(int, int) *big.Int { return qm1 }),
		"uniform":     gen(func(int, int) *big.Int { return new(big.Int).Rand(rng, qb) }),
		"hits q, q-1": gen(chains),
	}
}

// TestVectorSumMatchesPerTaskletKernel holds VectorSum to refVectorSum,
// the per-tasklet program it simulates: the same outputs and the same
// simulated figures — per-class counts, priced instructions, DMA cycles
// and critical-path cycles — at every width it serves, W = 1, 2 and 4,
// each on a preset's q and on a full-width modulus (2³² − 5, 2⁶⁴ − 59,
// 2¹²⁸ − 159) whose sums carry out of 32·W bits, for
// M = 1, 2, 5 and 64 vectors, 1, 3, 16 and 24 tasklets, and shards of
// 1, 7 (fewer coefficients than some tasklet counts), 100 and 700
// coefficients (more than one W = 4 tile of 341 for a lone tasklet, and
// not a multiple of it). Two DPUs each sum a shard side by side. M = 64
// is skipped under -short.
func TestVectorSumMatchesPerTaskletKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(4801))
	moduli := []struct {
		name string
		q    *big.Int
		w    int
	}{
		{"w1", modulusFor(t, 1).QBig, 1},
		{"w1 q=2^32-5", new(big.Int).Sub(pow2(32), big.NewInt(5)), 1},
		{"w2", modulusFor(t, 2).QBig, 2},
		{"w2 q=2^64-59", new(big.Int).Sub(pow2(64), big.NewInt(59)), 2},
		{"w4", modulusFor(t, 4).QBig, 4},
		{"w4 q=2^128-159", new(big.Int).Sub(pow2(128), big.NewInt(159)), 4},
	}
	ms := []int{1, 2, 5, 64}
	if testing.Short() {
		ms = ms[:3]
	}
	topo := pimsched.FitTopology(2)
	for _, mod := range moduli {
		w, q := mod.w, limbs(mod.q, mod.w)
		for _, m := range ms {
			for _, coeffs := range []int{1, 7, 100, 700} {
				for name, vecs := range sumOperands(rng, mod.q, w, m, 2*coeffs) {
					for _, tasklets := range []int{1, 3, 16, 24} {
						label := fmt.Sprintf("%s M=%d coeffs=%d %s tasklets=%d", mod.name, m, coeffs, name, tasklets)
						got, rep, err := RunVectorSumSched(testSched(t, topo, tasklets), vecs, w, q)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						want, ref, err := runPlan(testSched(t, topo, tasklets), vecs, w, func(_, cnt int) pim.KernelFunc {
							if cnt != coeffs {
								t.Fatalf("%s: shard of %d coefficients", label, cnt)
							}
							return refVectorSum(VecSumLayout{W: w, Coeffs: cnt, M: m, Q: q})
						})
						if err != nil {
							t.Fatalf("%s: reference: %v", label, err)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s: limb %d = %#x, per-tasklet kernel %#x", label, i, got[i], want[i])
							}
						}
						if rep.Counts != ref.Counts || rep.TotalInstr != ref.TotalInstr ||
							rep.TotalDMACycles != ref.TotalDMACycles || rep.KernelCycles != ref.KernelCycles {
							t.Fatalf("%s: counts %v instr/dma/cycles %d/%d/%d, per-tasklet kernel %v %d/%d/%d", label,
								rep.Counts, rep.TotalInstr, rep.TotalDMACycles, rep.KernelCycles,
								ref.Counts, ref.TotalInstr, ref.TotalDMACycles, ref.KernelCycles)
						}
					}
				}
			}
		}
	}
}

// TestVectorSumReadsItsMRAMEachLaunch launches one VectorSum program
// twice on a DPU whose MRAM is rewritten in between: the sums of every
// launch come from the vectors the DPU holds at that launch, not from a
// fold taken earlier.
func TestVectorSumReadsItsMRAMEachLaunch(t *testing.T) {
	rng := rand.New(rand.NewSource(4802))
	for _, w := range []int{1, 2, 4} {
		mod := modulusFor(t, w)
		const m, coeffs = 5, 40
		words := coeffs * w
		cfg := pim.DefaultConfig()
		cfg.NumDPUs, cfg.Tasklets = 1, 4
		sys, err := pim.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		kernel := VectorSum(VecSumLayout{W: w, Coeffs: coeffs, M: m, Q: mod.Q})
		for launch := 0; launch < 2; launch++ {
			var in []uint32
			want := make([]uint32, words)
			for v := 0; v < m; v++ {
				vec := randVec(rng, coeffs, mod)
				in = append(in, vec...)
				want = hostAdd(want, vec, mod)
			}
			if err := sys.CopyToDPU(0, 0, in); err != nil {
				t.Fatal(err)
			}
			if err := sys.DPUs[0].EnsureMRAM((m + 1) * words); err != nil {
				t.Fatal(err)
			}
			if _, errs := sys.LaunchOn([]int{0}, []pim.KernelFunc{kernel}); errs[0] != nil {
				t.Fatal(errs[0])
			}
			got := make([]uint32, words)
			if err := sys.CopyFromDPU(0, m*words, got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("w%d launch %d: limb %d = %#x, want %#x", w, launch, i, got[i], want[i])
				}
			}
		}
	}
}
