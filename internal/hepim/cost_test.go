package hepim

import (
	"runtime"
	"testing"

	"repro/internal/bfv"
	"repro/internal/limb32"
	"repro/internal/pimsched"
)

// rackFixture builds a server over the benchmark's 4 ranks × 64 DPUs.
func rackFixture(tb testing.TB, params *bfv.Parameters, relin bool) *fixture {
	tb.Helper()
	return topologyFixture(tb, params, pimsched.Topology{Ranks: 4, DPUsPerRank: 64}, relin)
}

func (f *fixture) encryptMany(tb testing.TB, count int) []*bfv.Ciphertext {
	tb.Helper()
	cts := make([]*bfv.Ciphertext, count)
	for i := range cts {
		ct, err := f.enc.EncryptValue(uint64(i % 7))
		if err != nil {
			tb.Fatal(err)
		}
		cts[i] = ct
	}
	return cts
}

// hostSum folds cts with the host evaluator.
func (f *fixture) hostSum(cts []*bfv.Ciphertext) *bfv.Ciphertext {
	sum := cts[0]
	for _, ct := range cts[1:] {
		sum = f.eval.Add(sum, ct)
	}
	return sum
}

// sim is what the server has simulated so far: its critical-path DPU
// cycles and its instructions over every tasklet.
func (f *fixture) sim() (cycles, instr int64) {
	bd := f.srv.Breakdown()
	return bd.KernelCycles, bd.TotalInstr
}

// reportSim reports the simulated cycles and instructions per run since
// f.sim read cycles0 and instr0: the model's figures, which
// cmd/benchdiff gates exactly. A DMA-bound launch hides an instruction
// change from the cycles, so both are reported.
func (f *fixture) reportSim(b *testing.B, cycles0, instr0 int64) {
	cycles, instr := f.sim()
	b.ReportMetric(float64(cycles-cycles0)/float64(b.N), "simcycles/run")
	b.ReportMetric(float64(instr-instr0)/float64(b.N), "siminstr/run")
}

// BenchmarkPIMMul27 is the host cost of simulating the paper's headline
// operation: one relinearized 27-bit Mul (n=1024) on 4×64 DPUs, whose
// tensor products run as one-limb products of residues modulo three
// primes below 2³¹. simcycles/run and siminstr/run are the simulated
// work it stands for and must not move.
func BenchmarkPIMMul27(b *testing.B) { benchmarkPIMMul(b, bfv.ParamsSec27()) }

// BenchmarkPIMMul54 is the same for one relinearized 54-bit Mul
// (n=2048), whose tensor runs over four primes and whose key switch
// runs at 2 limbs.
func BenchmarkPIMMul54(b *testing.B) { benchmarkPIMMul(b, bfv.ParamsSec54()) }

// benchmarkPIMMul times one relinearized Mul at params on 4×64 DPUs.
func benchmarkPIMMul(b *testing.B, params *bfv.Parameters) {
	f := rackFixture(b, params, true)
	cts := f.encryptMany(b, 2)
	ct0, ct1 := cts[0], cts[1]
	want, err := f.eval.Mul(ct0, ct1)
	if err != nil {
		b.Fatal(err)
	}
	mul := func() {
		got, err := f.srv.Mul(ct0, ct1)
		if err != nil {
			b.Fatal(err)
		}
		if !got.Equal(want) {
			b.Fatal("PIM Mul differs from host evaluator")
		}
	}
	mul() // the first call on a server grows every DPU's MRAM and WRAM
	b.ReportAllocs()
	b.ResetTimer()
	cycles0, instr0 := f.sim()
	for i := 0; i < b.N; i++ {
		mul()
	}
	f.reportSim(b, cycles0, instr0)
}

// checkMulPinned runs one relinearized Mul at params on 4×64 DPUs,
// checks it against the host evaluator, and holds its simulated
// critical-path cycles, instructions and per-class counts to the pinned
// figures.
func checkMulPinned(t *testing.T, params *bfv.Parameters, cycles, instr int64, counts limb32.Counts) {
	t.Helper()
	f := rackFixture(t, params, true)
	cts := f.encryptMany(t, 2)
	got, err := f.srv.Mul(cts[0], cts[1])
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.eval.Mul(cts[0], cts[1])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("PIM Mul differs from host evaluator")
	}
	bd := f.srv.Breakdown()
	if bd.KernelCycles != cycles || bd.TotalInstr != instr || bd.Counts != counts {
		t.Errorf("Mul simulated cycles/instr %d/%d, counts %v; pinned %d/%d, %v",
			bd.KernelCycles, bd.TotalInstr, bd.Counts, cycles, instr, counts)
	}
}

// TestPIMMul27IsPinned holds the simulated work of one relinearized
// 27-bit Mul — the operation BenchmarkPIMMul27 times — to the integers
// its program produces: a tensor of 12 one-limb residue products (four
// products modulo each of three primes below 2³¹), a one-limb key
// switch and two sums. The figures changed once, on purpose, when the
// tensor left the 256-bit lift modulus (1 667 707 501 cycles and
// 6 688 162 541 instructions before); how the simulator computes the
// tally is free to change, these numbers are the model and are not.
func TestPIMMul27IsPinned(t *testing.T) {
	checkMulPinned(t, bfv.ParamsSec27(), 101028254, 909412132,
		limb32.Counts{15381, 56623104, 21518, 0, 18972163, 75583558, 75534371, 6162, 0, 0, 37883430})
}

// TestPIMMul54IsPinned holds the simulated work of one relinearized
// 54-bit Mul on the same rack: a tensor of 16 one-limb residue products
// over four primes and a key switch of 2-limb products. It is the only
// Mul-level pin on the 2-limb (Karatsuba) product tally. The figures
// changed once, on purpose, when the tensor left the 256-bit lift
// modulus (7 737 038 764 cycles and 32 020 829 632 instructions before);
// these numbers are the model and are never edited.
func TestPIMMul54IsPinned(t *testing.T) {
	checkMulPinned(t, bfv.ParamsSec54(), 798582554, 6809042654,
		limb32.Counts{125863936, 427935714, 50382813, 50497465, 142998938, 520363880, 469884852, 75657208, 343980, 0, 235298150})
}

// TestPIMMul109IsPinned holds the simulated work of one relinearized
// 109-bit Mul (n=4096) on the same rack: a tensor of 32 one-limb
// residue products over eight primes and a key switch of 4-limb
// products, whose modular adds go through limb32.AddMod. It is the only
// pin whose 4-limb sums add real key-switching data (five vectors per
// output component). The figures changed once, on purpose, when the
// tensor left the 256-bit lift modulus (42 068 019 620 cycles and
// 201 466 296 396 instructions before); these numbers are the model and
// are never edited.
func TestPIMMul109IsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full n=4096 Mul")
	}
	checkMulPinned(t, bfv.ParamsSec109(), 9198566256, 92936662011,
		limb32.Counts{2281816181, 5503598624, 805486606, 1879850970, 1746402148, 10470228510, 8322089229, 1208385554, 1703728, 0, 4565302417})
}

// BenchmarkPIMSum64 is the host cost of simulating the arithmetic-mean
// aggregation: 64 ciphertexts at n=4096 (109-bit) on 4×64 DPUs.
func BenchmarkPIMSum64(b *testing.B) {
	f := rackFixture(b, bfv.ParamsSec109(), false)
	cts := f.encryptMany(b, 64)
	want := f.hostSum(cts)
	sum := func() {
		got, err := f.srv.Sum(cts)
		if err != nil {
			b.Fatal(err)
		}
		if !got.Equal(want) {
			b.Fatal("PIM Sum differs from host evaluator")
		}
	}
	sum() // the first call on a server grows every DPU's MRAM and WRAM
	b.ReportAllocs()
	b.ResetTimer()
	cycles0, instr0 := f.sim()
	for i := 0; i < b.N; i++ {
		sum()
	}
	f.reportSim(b, cycles0, instr0)
}

// TestSumAllocatesShardSizedScratch gates the simulator's memory cost: a
// DPU that owns 16 coefficients of a sum must not pay for whole WRAM
// tiles per tasklet. When every tasklet allocated full tiles this Sum
// cost 101.6 MB per call; what remains is the staged operands' bookkeeping
// and the two output polynomials.
func TestSumAllocatesShardSizedScratch(t *testing.T) {
	f := rackFixture(t, bfv.ParamsSec109(), false)
	cts := f.encryptMany(t, 64)
	want := f.hostSum(cts)
	sum := func() *bfv.Ciphertext {
		got, err := f.srv.Sum(cts)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if !sum().Equal(want) { // also warms the DPUs' MRAM and WRAM
		t.Fatal("PIM Sum differs from host evaluator")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sum()
	runtime.ReadMemStats(&after)
	const limit = 4 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("steady-state Sum of 64 allocated %d bytes, limit %d", got, limit)
	} else {
		t.Logf("steady-state Sum of 64 allocated %d bytes", got)
	}
}

// TestPIMSumAllocs gates the host allocations of a warm Sum of 64
// ciphertexts on 4 × 64 DPUs — the mean BenchmarkPIMSum64 times. The
// server's sum plan holds the shards, their placement and their
// programs, and a launch's slots belong to the System, so what is left
// per call is the output and the reports: 19 allocations, half the
// bound. A count near 1 700 means each call compiles its plan again.
func TestPIMSumAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const maxAllocs = 38
	f := rackFixture(t, bfv.ParamsSec109(), false)
	cts := f.encryptMany(t, 64)
	want := f.hostSum(cts)
	var got *bfv.Ciphertext
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if got, err = f.srv.Sum(cts); err != nil {
			t.Fatal(err)
		}
	})
	if !got.Equal(want) {
		t.Fatal("PIM Sum differs from host evaluator")
	}
	t.Logf("warm Sum of 64: %.0f allocations per call", allocs)
	if allocs > maxAllocs {
		t.Fatalf("warm Sum of 64 allocates %.0f times per call, want ≤ %d", allocs, maxAllocs)
	}
}

// TestPIMMulAllocs gates the host allocations of a warm relinearized
// 27-bit Mul on 4 × 64 DPUs — the operation BenchmarkPIMMul27 times.
// The server keeps its tensor, key-switching and sum plans, so what is
// left per call is the host's residues, rescaling and digits, the
// staged operands, the outputs and the reports: 51 allocations, half
// the bound. A count near 1 800 means each call compiles its plans
// again.
func TestPIMMulAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const maxAllocs = 102
	f := rackFixture(t, bfv.ParamsSec27(), true)
	cts := f.encryptMany(t, 2)
	want, err := f.eval.Mul(cts[0], cts[1])
	if err != nil {
		t.Fatal(err)
	}
	var got *bfv.Ciphertext
	allocs := testing.AllocsPerRun(5, func() {
		if got, err = f.srv.Mul(cts[0], cts[1]); err != nil {
			t.Fatal(err)
		}
	})
	if !got.Equal(want) {
		t.Fatal("PIM Mul differs from host evaluator")
	}
	t.Logf("warm 27-bit Mul: %.0f allocations per call", allocs)
	if allocs > maxAllocs {
		t.Fatalf("warm 27-bit Mul allocates %.0f times per call, want ≤ %d", allocs, maxAllocs)
	}
}

// TestResultsWrapDriverOutputs checks the invariant that lets Add, Sum
// and Mul hand back the drivers' output slices without copying them:
// every result owns its storage. No component shares a word with an
// operand, with another component, or with the result of the next call.
func TestResultsWrapDriverOutputs(t *testing.T) {
	f := multiRankFixture(t)
	ct0, _ := f.enc.EncryptValue(3)
	ct1, _ := f.enc.EncryptValue(9)
	ops := map[string]func() (*bfv.Ciphertext, error){
		"Add": func() (*bfv.Ciphertext, error) { return f.srv.Add(ct0, ct1) },
		"Sum": func() (*bfv.Ciphertext, error) { return f.srv.Sum([]*bfv.Ciphertext{ct0, ct1, ct0}) },
		"Mul": func() (*bfv.Ciphertext, error) { return f.srv.Mul(ct0, ct1) },
	}
	for name, op := range ops {
		first, err := op()
		if err != nil {
			t.Fatal(err)
		}
		keep := first.Clone()
		in0, in1 := ct0.Clone(), ct1.Clone()
		second, err := op()
		if err != nil {
			t.Fatal(err)
		}
		// Scribbling over one result must leave everything else intact.
		for _, p := range second.Polys {
			for i := range p.C {
				p.C[i] = ^p.C[i]
			}
		}
		if !first.Equal(keep) {
			t.Errorf("%s: a later result aliases an earlier one", name)
		}
		if !ct0.Equal(in0) || !ct1.Equal(in1) {
			t.Errorf("%s: the result aliases an operand", name)
		}
		for i, p := range first.Polys {
			for j := range p.C {
				p.C[j] = ^p.C[j]
			}
			for k, other := range first.Polys {
				if k != i && !other.Equal(keep.Polys[k]) {
					t.Errorf("%s: components %d and %d share storage", name, i, k)
				}
			}
			if cap(p.C) != len(p.C) {
				t.Errorf("%s: component %d can grow into its neighbour (len %d cap %d)", name, i, len(p.C), cap(p.C))
			}
			copy(p.C, keep.Polys[i].C)
		}
	}
}
