package kernels

import (
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/limb32"
	"repro/internal/pim"
	"repro/internal/pimsched"
	"repro/internal/poly"
)

// testSched builds a fresh simulated system of topo's size and the
// scheduler over it: the one way every test in this package reaches a
// kernel.
func testSched(t *testing.T, topo pimsched.Topology, tasklets int) *pimsched.Scheduler {
	t.Helper()
	cfg := pim.DefaultConfig()
	cfg.NumDPUs = topo.NumDPUs()
	cfg.Tasklets = tasklets
	sys, err := pim.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := pimsched.New(sys, topo, true)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// runPlan compiles the shards kernel builds for ins, cut into units of
// unitWords words, and runs them once: a driver's path, for a reference
// program.
func runPlan(sched *pimsched.Scheduler, ins [][]uint32, unitWords int, kernel func(first, cnt int) pim.KernelFunc) ([]uint32, *pimsched.Report, error) {
	p, err := compile(sched, len(ins), len(ins[0]), unitWords, kernel)
	if err != nil {
		return nil, nil, err
	}
	return p.Run(ins)
}

// paper moduli by width.
func modulusFor(t *testing.T, w int) *poly.Modulus {
	t.Helper()
	var s string
	switch w {
	case 1:
		s = "134217689"
	case 2:
		s = "18014398509481951"
	case 4:
		s = "649037107316853453566312041152481"
	case 8: // 2²⁵⁶ − 189, the lift modulus of the benchmark's traced kernel row
		s = "115792089237316195423570985008687907853269984665640564039457584007913129639747"
	default:
		t.Fatalf("no modulus for width %d", w)
	}
	q, _ := new(big.Int).SetString(s, 10)
	m, err := poly.NewModulus(q)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randVec(rng *rand.Rand, coeffs int, mod *poly.Modulus) []uint32 {
	out := make([]uint32, coeffs*mod.W)
	for i := 0; i < coeffs; i++ {
		c := new(big.Int).Rand(rng, mod.QBig)
		copy(out[i*mod.W:(i+1)*mod.W], limb32.FromBig(c, mod.W))
	}
	return out
}

// hostAdd is the trusted host result for element-wise modular addition.
func hostAdd(a, b []uint32, mod *poly.Modulus) []uint32 {
	out := make([]uint32, len(a))
	w := mod.W
	for i := 0; i < len(a)/w; i++ {
		limb32.AddMod(
			limb32.Nat(out[i*w:(i+1)*w]),
			limb32.Nat(a[i*w:(i+1)*w]),
			limb32.Nat(b[i*w:(i+1)*w]),
			mod.Q, nil)
	}
	return out
}

func TestVectorAddBitExactAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, w := range []int{1, 2, 4} {
		mod := modulusFor(t, w)
		for _, dpus := range []int{1, 3, 8} {
			for _, tasklets := range []int{1, 11, 16} {
				sched := testSched(t, pimsched.FitTopology(dpus), tasklets)
				coeffs := 1000
				a := randVec(rng, coeffs, mod)
				b := randVec(rng, coeffs, mod)
				got, rep, err := RunVectorAddSched(sched, a, b, w, mod.Q)
				if err != nil {
					t.Fatal(err)
				}
				want := hostAdd(a, b, mod)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("w=%d dpus=%d tasklets=%d: limb %d differs", w, dpus, tasklets, i)
					}
				}
				if rep.KernelCycles <= 0 {
					t.Error("kernel charged no cycles")
				}
			}
		}
	}
}

func TestVectorAddUnevenShards(t *testing.T) {
	// Coefficient counts that do not divide evenly across DPUs/tasklets.
	rng := rand.New(rand.NewSource(101))
	mod := modulusFor(t, 4)
	sched := testSched(t, pimsched.FitTopology(7), 13)
	for _, coeffs := range []int{1, 6, 7, 8, 97} {
		a := randVec(rng, coeffs, mod)
		b := randVec(rng, coeffs, mod)
		got, _, err := RunVectorAddSched(sched, a, b, 4, mod.Q)
		if err != nil {
			t.Fatal(err)
		}
		want := hostAdd(a, b, mod)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("coeffs=%d: limb %d differs", coeffs, i)
			}
		}
	}
}

func TestVectorAddRejectsBadInput(t *testing.T) {
	sched := testSched(t, pimsched.FitTopology(1), 1)
	mod := modulusFor(t, 2)
	if _, _, err := RunVectorAddSched(sched, make([]uint32, 4), make([]uint32, 6), 2, mod.Q); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := RunVectorAddSched(sched, make([]uint32, 5), make([]uint32, 5), 2, mod.Q); err == nil {
		t.Error("non-multiple length accepted")
	}
}

// TestVectorPolyMulRejectsWideCoefficients: the product kernel's
// convolution holds coefficients of at most 8 limbs; a 9-limb operand is
// refused before any DPU runs.
func TestVectorPolyMulRejectsWideCoefficients(t *testing.T) {
	sched := testSched(t, pimsched.FitTopology(1), 1)
	q := make(limb32.Nat, 9)
	q[8] = 1
	if _, _, err := RunVectorPolyMulSched(sched, make([]uint32, 16*9), make([]uint32, 16*9), 16, 9, q); err == nil {
		t.Error("9-limb coefficients accepted")
	}
}

func hostPolyMul(t *testing.T, a, b []uint32, n int, mod *poly.Modulus) []uint32 {
	t.Helper()
	pairs := len(a) / (n * mod.W)
	out := make([]uint32, len(a))
	pa, pb, po := poly.NewPoly(n, mod.W), poly.NewPoly(n, mod.W), poly.NewPoly(n, mod.W)
	for p := 0; p < pairs; p++ {
		copy(pa.C, a[p*n*mod.W:(p+1)*n*mod.W])
		copy(pb.C, b[p*n*mod.W:(p+1)*n*mod.W])
		poly.MulNegacyclic(po, pa, pb, mod)
		copy(out[p*n*mod.W:(p+1)*n*mod.W], po.C)
	}
	return out
}

func TestVectorPolyMulBitExactAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, w := range []int{1, 2, 4, 8} {
		mod := modulusFor(t, w)
		for _, n := range []int{16, 64} {
			for _, tasklets := range []int{1, 11, 16} {
				sched := testSched(t, pimsched.FitTopology(3), tasklets)
				pairs := 5
				a := randVec(rng, pairs*n, mod)
				b := randVec(rng, pairs*n, mod)
				got, rep, err := RunVectorPolyMulSched(sched, a, b, n, w, mod.Q)
				if err != nil {
					t.Fatal(err)
				}
				want := hostPolyMul(t, a, b, n, mod)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("w=%d n=%d tasklets=%d: limb %d differs (got %#x want %#x)",
							w, n, tasklets, i, got[i], want[i])
					}
				}
				if rep.Counts[limb32.OpMul32] == 0 {
					t.Error("poly mul charged no multiplies")
				}
			}
		}
	}
}

// TestVectorPolyMulW8MixedPaths runs the W = 8 kernel on several DPUs
// at once, GOMAXPROCS ≥ 2, with every output fed both products of short
// operands and products of operands of up to 256 bits: even
// coefficients of a and all of b but every fourth are small values,
// 2⁶³ − 1 or lifted centred values and 2²⁵⁶ − 2⁶³ near the top, the rest
// 2²⁵⁵ or random residues, so the convolution's primes are sized by the
// widest. Each DPU multiplies two pairs, twice. It runs under -short,
// so the race detector sees the launch words of DPUs simulated side by
// side.
func TestVectorPolyMulW8MixedPaths(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	rng := rand.New(rand.NewSource(4403))
	mod := modulusFor(t, 8)
	word := []*big.Int{
		big.NewInt(0x3ffffff), new(big.Int).Sub(mod.QBig, big.NewInt(0x3ffffff)),
		new(big.Int).Sub(pow2(63), big.NewInt(1)), new(big.Int).Sub(pow2(256), pow2(63)),
		big.NewInt(5), new(big.Int).Sub(mod.QBig, big.NewInt(1)),
	}
	const n, pairs = 32, 6
	coeff := func(isWord bool) []uint32 {
		v := word[rng.Intn(len(word))]
		if !isWord {
			v = pow2(255)
			if rng.Intn(2) == 0 {
				v = new(big.Int).Rand(rng, mod.QBig)
			}
		}
		return limbs(v, 8)
	}
	// Output k gets a product of a full-width a from every odd i, and
	// one of the listed values from the even i whose k − i is not 3 mod 4.
	var a, b []uint32
	for i := 0; i < pairs*n; i++ {
		a = append(a, coeff(i%2 == 0)...)
		b = append(b, coeff(i%4 != 3)...)
	}
	sched := testSched(t, pimsched.FitTopology(3), 4)
	for run := 0; run < 2; run++ { // the second run reuses each DPU's launch words
		got, _, err := RunVectorPolyMulSched(sched, a, b, n, 8, mod.Q)
		if err != nil {
			t.Fatal(err)
		}
		want := hostPolyMul(t, a, b, n, mod)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: limb %d differs (got %#x want %#x)", run, i, got[i], want[i])
			}
		}
	}
}

func TestVectorPolyMulChargesQuadratically(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	mod := modulusFor(t, 4)
	cycles := func(n int) int64 {
		sched := testSched(t, pimsched.FitTopology(1), 16)
		a := randVec(rng, n, mod)
		b := randVec(rng, n, mod)
		_, rep, err := RunVectorPolyMulSched(sched, a, b, n, 4, mod.Q)
		if err != nil {
			t.Fatal(err)
		}
		return rep.KernelCycles
	}
	c32, c64 := cycles(32), cycles(64)
	ratio := float64(c64) / float64(c32)
	if ratio < 3.0 || ratio > 5.0 {
		t.Errorf("doubling n scaled cycles by %.2f, want ~4 (schoolbook is O(n²))", ratio)
	}
}

func TestVectorPolyMulKaratsubaAdvantage(t *testing.T) {
	// The 128-bit kernel must charge 9 mul32 per coefficient product
	// (Karatsuba), not 16 (schoolbook): paper §3.
	rng := rand.New(rand.NewSource(104))
	mod := modulusFor(t, 4)
	n := 16
	sched := testSched(t, pimsched.FitTopology(1), 1)
	a := randVec(rng, n, mod)
	b := randVec(rng, n, mod)
	_, rep, err := RunVectorPolyMulSched(sched, a, b, n, 4, mod.Q)
	if err != nil {
		t.Fatal(err)
	}
	// n² products à 9 mul32, plus 2n modular reductions (divisions) which
	// charge ~2(w+1) mul32 each: the total must stay well under the
	// schoolbook count of 16 per product.
	products := int64(n * n)
	if rep.Counts[limb32.OpMul32] >= products*16 {
		t.Errorf("mul32 count %d suggests schoolbook, want Karatsuba (< %d)",
			rep.Counts[limb32.OpMul32], products*16)
	}
	if rep.Counts[limb32.OpMul32] < products*9 {
		t.Errorf("mul32 count %d below Karatsuba floor %d", rep.Counts[limb32.OpMul32], products*9)
	}
}

func TestMoreTaskletsNotSlower(t *testing.T) {
	// Tasklet scaling on a real kernel: simulated time at 16 tasklets must
	// beat 1 tasklet and roughly match 11 (paper observation 1).
	rng := rand.New(rand.NewSource(105))
	mod := modulusFor(t, 4)
	coeffs := 4096
	a := randVec(rng, coeffs, mod)
	b := randVec(rng, coeffs, mod)
	cyclesAt := func(tasklets int) int64 {
		sched := testSched(t, pimsched.FitTopology(1), tasklets)
		_, rep, err := RunVectorAddSched(sched, a, b, 4, mod.Q)
		if err != nil {
			t.Fatal(err)
		}
		return rep.KernelCycles
	}
	c1, c11, c16 := cyclesAt(1), cyclesAt(11), cyclesAt(16)
	if c11 >= c1 {
		t.Errorf("11 tasklets (%d cycles) not faster than 1 (%d)", c11, c1)
	}
	// Beyond saturation the improvement should be marginal (< 15%).
	if float64(c16) < 0.85*float64(c11) {
		t.Errorf("16 tasklets (%d) improved too much over 11 (%d): saturation missing", c16, c11)
	}
}
