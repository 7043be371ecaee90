package kernels

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/nt"
	"repro/internal/pimsched"
	"repro/internal/poly"
)

func testPlan(t *testing.T, n int) *NTTPlan {
	t.Helper()
	q, err := nt.NTTPrime(27, n) // 27-bit NTT-friendly prime, paper's smallest level
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewNTTPlan(q, n)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestNTTPlanRejectsWideModulus(t *testing.T) {
	q, err := nt.NTTPrime(40, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNTTPlan(q, 64); err == nil {
		t.Error("40-bit modulus accepted for a 32-bit plan")
	}
}

func TestNTTPolyMulBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	for _, n := range []int{16, 64, 256} {
		plan := testPlan(t, n)
		mod, err := poly.NewModulus(new(big.Int).SetUint64(plan.Q))
		if err != nil {
			t.Fatal(err)
		}
		for _, tasklets := range []int{1, 11, 16} {
			sched := testSched(t, pimsched.FitTopology(3), tasklets)
			pairs := 5
			a := make([]uint32, pairs*n)
			b := make([]uint32, pairs*n)
			for i := range a {
				a[i] = uint32(rng.Uint64() % plan.Q)
				b[i] = uint32(rng.Uint64() % plan.Q)
			}
			got, rep, err := RunNTTPolyMulSched(sched, plan, a, b)
			if err != nil {
				t.Fatal(err)
			}
			// Host oracle: schoolbook negacyclic over the same prime.
			want := hostPolyMul(t, a, b, n, mod)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d tasklets=%d: coeff %d differs (%d != %d)",
						n, tasklets, i, got[i], want[i])
				}
			}
			if rep.KernelCycles <= 0 {
				t.Error("NTT kernel charged nothing")
			}
		}
	}
}

// TestNTTBeatsSchoolbookOnPIM quantifies the paper's deferred
// optimization. The NTT kernel parallelizes across polynomial *pairs*
// (each transform is a dependency chain), so the fair comparison keeps
// every tasklet busy: 16 pairs on 16 tasklets. There the O(n log n)
// kernel must clearly beat the O(n²) schoolbook kernel despite the
// software multiplier.
func TestNTTBeatsSchoolbookOnPIM(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	n := 256
	pairs := 16
	plan := testPlan(t, n)
	mod, err := poly.NewModulus(new(big.Int).SetUint64(plan.Q))
	if err != nil {
		t.Fatal(err)
	}
	a := make([]uint32, pairs*n)
	b := make([]uint32, pairs*n)
	for i := range a {
		a[i] = uint32(rng.Uint64() % plan.Q)
		b[i] = uint32(rng.Uint64() % plan.Q)
	}

	schedNTT := testSched(t, pimsched.FitTopology(1), 16)
	_, repNTT, err := RunNTTPolyMulSched(schedNTT, plan, a, b)
	if err != nil {
		t.Fatal(err)
	}
	schedSchool := testSched(t, pimsched.FitTopology(1), 16)
	_, repSchool, err := RunVectorPolyMulSched(schedSchool, a, b, n, 1, mod.Q)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(repSchool.KernelCycles) / float64(repNTT.KernelCycles)
	if speedup < 3 {
		t.Errorf("NTT speedup over schoolbook only %.2fx at n=%d (NTT %d vs schoolbook %d cycles)",
			speedup, n, repNTT.KernelCycles, repSchool.KernelCycles)
	}
	t.Logf("n=%d pairs=%d: schoolbook %d cycles, NTT %d cycles (%.1fx)",
		n, pairs, repSchool.KernelCycles, repNTT.KernelCycles, speedup)

	// The single-pair case documents the flip side: with only one pair the
	// NTT's dependency chain leaves 15 of 16 tasklets idle and schoolbook
	// (which splits output coefficients) can win — parallel grain matters
	// as much as asymptotics on this architecture.
	schedN1 := testSched(t, pimsched.FitTopology(1), 16)
	_, repN1, err := RunNTTPolyMulSched(schedN1, plan, a[:n], b[:n])
	if err != nil {
		t.Fatal(err)
	}
	schedS1 := testSched(t, pimsched.FitTopology(1), 16)
	_, repS1, err := RunVectorPolyMulSched(schedS1, a[:n], b[:n], n, 1, mod.Q)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("single pair: schoolbook %d cycles, NTT %d cycles", repS1.KernelCycles, repN1.KernelCycles)
}

func TestNTTScalesNLogN(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	cyclesAt := func(n int) int64 {
		plan := testPlan(t, n)
		a := make([]uint32, n)
		b := make([]uint32, n)
		for i := range a {
			a[i] = uint32(rng.Uint64() % plan.Q)
			b[i] = uint32(rng.Uint64() % plan.Q)
		}
		sched := testSched(t, pimsched.FitTopology(1), 1)
		_, rep, err := RunNTTPolyMulSched(sched, plan, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return rep.KernelCycles
	}
	c256, c512 := cyclesAt(256), cyclesAt(512)
	// n log n: doubling n should scale cycles by ~2.25, far below the 4x
	// of schoolbook.
	ratio := float64(c512) / float64(c256)
	if ratio < 1.8 || ratio > 2.8 {
		t.Errorf("NTT scaling ratio %.2f, want ~2.25 (n log n)", ratio)
	}
}

func TestRunNTTPolyMulShapeErrors(t *testing.T) {
	plan := testPlan(t, 64)
	sched := testSched(t, pimsched.FitTopology(1), 1)
	if _, _, err := RunNTTPolyMulSched(sched, plan, make([]uint32, 64), make([]uint32, 128)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := RunNTTPolyMulSched(sched, plan, make([]uint32, 65), make([]uint32, 65)); err == nil {
		t.Error("non-multiple length accepted")
	}
}
