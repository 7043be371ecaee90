package hepim

import (
	"math/big"
	"runtime"
	"testing"

	"repro/internal/bfv"
	"repro/internal/limb32"
	"repro/internal/pim"
	"repro/internal/pimsched"
	"repro/internal/poly"
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

// simCycles is the critical-path DPU cycles the server has simulated.
func (f *fixture) simCycles() float64 { return float64(f.srv.Breakdown().KernelCycles) }

// BenchmarkPIMMul27 is the host cost of simulating the paper's headline
// operation: one relinearized 27-bit Mul (n=1024) on 4×64 DPUs, whose
// tensor products run under the 8-limb lift modulus. simcycles/run is the
// simulated work it stands for and must not move.
func BenchmarkPIMMul27(b *testing.B) { benchmarkPIMMul(b, bfv.ParamsSec27()) }

// BenchmarkPIMMul54 is the same for one relinearized 54-bit Mul
// (n=2048), whose key switch runs at 2 limbs.
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
	before := f.simCycles()
	for i := 0; i < b.N; i++ {
		mul()
	}
	b.ReportMetric((f.simCycles()-before)/float64(b.N), "simcycles/run")
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
// the schoolbook kernel produced when every product went through
// limb32.Mul and accumAdd. Its lift-modulus tensor products run on
// centered operands, whose zero limbs take the kernel's skipped-row
// path; how the simulator computes the tally is free to change, these
// numbers are the model and are not.
func TestPIMMul27IsPinned(t *testing.T) {
	checkMulPinned(t, bfv.ParamsSec27(), 1667707501, 6688162541,
		limb32.Counts{149859401, 400098980, 13326, 763018, 156980022, 566283594, 251684027, 251004, 539606, 0, 263839313})
}

// TestPIMMul54IsPinned holds the simulated work of one relinearized
// 54-bit Mul on the same rack to the integers the kernels produced when
// every 2-limb product of its key switch went through limb32.Mul and
// accumAdd. It is the only Mul-level pin on the 2-limb (Karatsuba)
// product tally; these numbers are the model and are never edited.
func TestPIMMul54IsPinned(t *testing.T) {
	checkMulPinned(t, bfv.ParamsSec54(), 7737038764, 32020829632,
		limb32.Counts{799102951, 1901775219, 50358237, 52026588, 750580670, 2632252642, 1185160652, 76147873, 1424200, 0, 1178146134})
}

// TestPIMMul109IsPinned holds the simulated work of one relinearized
// 109-bit Mul (n=4096) on the same rack to the integers the kernels
// produced when every 4-limb modular add went through limb32.AddMod and
// every 4-limb product through limb32.Mul and accumAdd. It is the only
// pin whose 4-limb sums add real key-switching data (five vectors per
// output component); these numbers are the model and are never edited.
func TestPIMMul109IsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full n=4096 Mul")
	}
	checkMulPinned(t, bfv.ParamsSec109(), 42068019620, 201466296396,
		limb32.Counts{5491187748, 11654209380, 805371918, 1882913131, 4421449850, 19359096276, 10656406776, 1209368077, 3865682, 0, 8313436896})
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
	before := f.simCycles()
	for i := 0; i < b.N; i++ {
		sum()
	}
	b.ReportMetric((f.simCycles()-before)/float64(b.N), "simcycles/run")
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
// ciphertexts on 4 × 64 DPUs — the mean BenchmarkPIMSum64 times. A shard
// is a word range and its kernel, so what is left per call is the
// placement, one goroutine per DPU launch, one kernel per shard and the
// output. The scheduler that staged and gathered through per-shard
// closures on goroutines of its own made 2 848.
func TestPIMSumAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const maxAllocs = 2000
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

// TestLiftCenteredTable holds liftCentered to the big.Int lift it
// replaced — centred representatives, then reduced into the 256-bit
// lift modulus — bit for bit at 0, ⌊q/2⌋, ⌊q/2⌋ + 1 and q − 1, the two
// sides of the centring threshold and the ends of the range, for each
// preset.
func TestLiftCenteredTable(t *testing.T) {
	for _, params := range []*bfv.Parameters{bfv.ParamsSec27(), bfv.ParamsSec54(), bfv.ParamsSec109()} {
		srv, err := NewServerWithTopology(pim.DefaultConfig(), params, nil, pimsched.Topology{Ranks: 1, DPUsPerRank: 1})
		if err != nil {
			t.Fatal(err)
		}
		q := params.Q
		one := big.NewInt(1)
		lift := new(big.Int).Sub(new(big.Int).Lsh(one, 256), big.NewInt(189))
		rows := []struct {
			x, want *big.Int
		}{
			{new(big.Int), new(big.Int)},
			{q.Half, q.Half},
			{new(big.Int).Add(q.Half, one), new(big.Int).Sub(lift, new(big.Int).Sub(q.QBig, new(big.Int).Add(q.Half, one)))},
			{new(big.Int).Sub(q.QBig, one), new(big.Int).Sub(lift, one)},
		}
		p := poly.NewPoly(params.N, q.W)
		for i, r := range rows {
			copy(p.Coeff(i), limb32.FromBig(r.x, q.W))
		}
		got := srv.liftCentered(p)
		if old := poly.FromBigCoeffs(p.ToCenteredCoeffs(q), srv.lift); !got.Equal(old) {
			t.Errorf("%d-bit q: limb lift differs from the big.Int lift", q.Bits())
		}
		for i, r := range rows {
			if v := limb32.Nat(got.Coeff(i)).Big(); v.Cmp(r.want) != 0 {
				t.Errorf("%d-bit q: lift of %v = %v, want %v", q.Bits(), r.x, v, r.want)
			}
		}
	}
}
