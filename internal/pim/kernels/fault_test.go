package kernels

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/limb32"
	"repro/internal/pim"
	"repro/internal/pimsched"
	"repro/internal/poly"
)

// faultSched is a single-rank scheduler over dpus two-tasklet DPUs, the
// fault suite's machine.
func faultSched(t *testing.T, dpus int) *pimsched.Scheduler {
	t.Helper()
	return testSched(t, pimsched.FitTopology(dpus), 2)
}

// addOracle computes the expected element-wise modular sum on the host.
func addOracle(a, b []uint32, w int, q limb32.Nat) []uint32 {
	out := make([]uint32, len(a))
	for c := 0; c < len(a)/w; c++ {
		limb32.AddMod(limb32.Nat(out[c*w:(c+1)*w]),
			limb32.Nat(a[c*w:(c+1)*w]), limb32.Nat(b[c*w:(c+1)*w]), q, nil)
	}
	return out
}

func testVectors(n, w int, q limb32.Nat) (a, b []uint32) {
	a = make([]uint32, n*w)
	b = make([]uint32, n*w)
	for i := range a {
		// Stay below q's top limb so coefficients are canonical.
		a[i] = uint32(i*2654435761) % q[0] / 2
		b[i] = uint32(i*40503+17) % q[0] / 2
	}
	if w > 1 {
		for i := range a {
			if i%w != 0 {
				a[i], b[i] = 0, 0
			}
		}
	}
	return a, b
}

func TestFaultTransientRetryBitExact(t *testing.T) {
	q := limb32.Nat{4294967291} // 2³²−5, prime
	a, b := testVectors(256, 1, q)
	want := addOracle(a, b, 1, q)

	sched := faultSched(t, 8)
	sched.Sys.SetFaultInjector(faultinject.New(11).SetRate(pim.SiteDPUTransient, 0.3))
	for round := 0; round < 10; round++ {
		got, rep, err := RunVectorAddSched(sched, a, b, 1, q)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if rep == nil {
			t.Fatal("nil report")
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: coeff %d = %d, want %d", round, i, got[i], want[i])
			}
		}
	}
	st := sched.Sys.FaultStats()
	if st.TransientFaults == 0 || st.Retries == 0 {
		t.Fatalf("expected injected transients and retries, got %+v", st)
	}
	if st.Retries != st.TransientFaults {
		t.Fatalf("every transient fault should retry exactly once per round: %+v", st)
	}
}

func TestFaultDeadDPURedispatchBitExact(t *testing.T) {
	q := limb32.Nat{4294967291}
	a, b := testVectors(512, 1, q)
	want := addOracle(a, b, 1, q)

	sched := faultSched(t, 6)
	sched.Sys.SetFaultInjector(faultinject.New(5).SetRate(pim.SiteDPUDead, 0.15))
	var st pim.FaultStats
	for round := 0; round < 12 && st.DeadDPUs == 0; round++ {
		got, _, err := RunVectorAddSched(sched, a, b, 1, q)
		if err != nil {
			t.Fatalf("round %d (stats %+v): %v", round, sched.Sys.FaultStats(), err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: coeff %d = %d, want %d", round, i, got[i], want[i])
			}
		}
		st = sched.Sys.FaultStats()
	}
	if st.DeadDPUs == 0 {
		t.Skip("seed produced no deaths in 12 rounds (rate 0.15 over 6 DPUs — should not happen)")
	}
	if st.Redispatches == 0 {
		t.Fatalf("dead DPUs without re-dispatches: %+v", st)
	}
	if live := len(sched.Sys.LiveDPUIDs()); live != 6-st.DeadDPUs {
		t.Fatalf("live count %d, want %d", live, 6-st.DeadDPUs)
	}
}

func TestFaultAllDPUsDead(t *testing.T) {
	q := limb32.Nat{4294967291}
	a, b := testVectors(64, 1, q)

	sched := faultSched(t, 3)
	sched.Sys.SetFaultInjector(faultinject.New(1).SetRate(pim.SiteDPUDead, 1))
	_, _, err := RunVectorAddSched(sched, a, b, 1, q)
	if err == nil {
		t.Fatal("expected failure with every DPU dying")
	}
	if !pim.IsFault(err) {
		t.Fatalf("error %v is not in the fault taxonomy", err)
	}
	// Once everything is dead the system reports it directly.
	if _, _, err := RunVectorAddSched(sched, a, b, 1, q); !errors.Is(err, pim.ErrNoLiveDPUs) {
		t.Fatalf("got %v, want ErrNoLiveDPUs", err)
	}
}

func TestFaultRetryBudgetExhaustion(t *testing.T) {
	q := limb32.Nat{4294967291}
	a, b := testVectors(64, 1, q)

	sched := faultSched(t, 2)
	sched.Sys.SetFaultInjector(faultinject.New(1).SetRate(pim.SiteDPUTransient, 1))
	_, _, err := RunVectorAddSched(sched, a, b, 1, q)
	if !errors.Is(err, pim.ErrFaultBudget) {
		t.Fatalf("got %v, want ErrFaultBudget", err)
	}
	if !pim.IsFault(err) {
		t.Fatal("budget exhaustion not classified as a fault")
	}
	// The run gives up after its first attempt and RetryBudget retries.
	if want := fmt.Sprintf("after %d round(s)", 1+pim.RetryBudget); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not say %q", err, want)
	}
}

func TestFaultStragglerInflatesModeledTime(t *testing.T) {
	q := limb32.Nat{4294967291}
	a, b := testVectors(4096, 1, q)

	base := faultSched(t, 4)
	repBase, err := timeOf(base, a, b, q)
	if err != nil {
		t.Fatal(err)
	}
	slow := faultSched(t, 4)
	slow.Sys.SetFaultInjector(faultinject.New(2).SetRate(pim.SiteDPUStraggler, 1))
	repSlow, err := timeOf(slow, a, b, q)
	if err != nil {
		t.Fatal(err)
	}
	if st := slow.Sys.FaultStats(); st.StragglerHits == 0 {
		t.Fatalf("no straggler hits at rate 1: %+v", st)
	}
	if repSlow.KernelCycles <= repBase.KernelCycles {
		t.Fatalf("straggler cycles %d not above baseline %d", repSlow.KernelCycles, repBase.KernelCycles)
	}
	// Results are unaffected — stragglers are slow, not wrong.
}

func timeOf(sched *pimsched.Scheduler, a, b []uint32, q limb32.Nat) (*pimsched.Report, error) {
	_, rep, err := RunVectorAddSched(sched, a, b, 1, q)
	return rep, err
}

func TestFaultRunsAreReproducible(t *testing.T) {
	q := limb32.Nat{4294967291}
	a, b := testVectors(256, 1, q)

	stats := func() pim.FaultStats {
		sched := faultSched(t, 8)
		sched.Sys.SetFaultInjector(faultinject.New(77).
			SetRate(pim.SiteDPUTransient, 0.2).
			SetRate(pim.SiteDPUDead, 0.05).
			SetRate(pim.SiteDPUStraggler, 0.1))
		for round := 0; round < 6; round++ {
			if _, _, err := RunVectorAddSched(sched, a, b, 1, q); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		return sched.Sys.FaultStats()
	}
	first, second := stats(), stats()
	if first != second {
		t.Fatalf("same seed, different fault streams:\n%+v\n%+v", first, second)
	}
}

func TestFaultSumAndPolyMulSurviveFaults(t *testing.T) {
	q := limb32.Nat{4294967291}

	// Sum: 5 vectors, injected transients.
	vecs := make([][]uint32, 5)
	want := make([]uint32, 128)
	for v := range vecs {
		vecs[v] = make([]uint32, 128)
		for i := range vecs[v] {
			vecs[v][i] = uint32(v*1000+i) % (q[0] / 8)
		}
		for i := range want {
			limb32.AddMod(limb32.Nat(want[i:i+1]), limb32.Nat(want[i:i+1]),
				limb32.Nat(vecs[v][i:i+1]), q, nil)
		}
	}
	sched := faultSched(t, 4)
	sched.Sys.SetFaultInjector(faultinject.New(13).SetRate(pim.SiteDPUTransient, 0.3))
	got, _, err := RunVectorSumSched(sched, vecs, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sum coeff %d = %d, want %d", i, got[i], want[i])
		}
	}

	// PolyMul: compare a faulty run against a clean one.
	n := 32
	a := make([]uint32, 4*n)
	b := make([]uint32, 4*n)
	for i := range a {
		a[i] = uint32(i*7+3) % (q[0] / 4)
		b[i] = uint32(i*11+5) % (q[0] / 4)
	}
	clean := faultSched(t, 4)
	wantP, _, err := RunVectorPolyMulSched(clean, a, b, n, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	faulty := faultSched(t, 4)
	faulty.Sys.SetFaultInjector(faultinject.New(21).
		SetRate(pim.SiteDPUTransient, 0.25).SetRate(pim.SiteDPUDead, 0.1))
	gotP, _, err := RunVectorPolyMulSched(faulty, a, b, n, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotP {
		if gotP[i] != wantP[i] {
			t.Fatalf("polymul word %d = %d, want %d", i, gotP[i], wantP[i])
		}
	}

	// PolyMul with a modulus per pair, the shape of a PIM Mul's residue
	// tensor: four primes below 2³¹ over twelve pairs, so every DPU's
	// shard mixes them. A shard retried or re-placed off a dead DPU keeps
	// its own pairs' moduli: each pair is its product mod its own prime,
	// bit for bit, in a run that both retried and re-dispatched.
	primes := []uint32{2147483647, 2147483629, 2147483587, 2147483579}
	const pairs = 12
	mods := make([]limb32.Nat, pairs)
	a, b = make([]uint32, pairs*n), make([]uint32, pairs*n)
	wantM := make([]uint32, pairs*n)
	for p := range mods {
		mods[p] = limb32.Nat{primes[p%len(primes)]}
		mod, err := poly.NewModulus(new(big.Int).SetUint64(uint64(mods[p][0])))
		if err != nil {
			t.Fatal(err)
		}
		for i := p * n; i < (p+1)*n; i++ {
			a[i] = uint32(uint64(i) * 2654435761 % uint64(mods[p][0]))
			b[i] = uint32(uint64(i) * 40503 % uint64(mods[p][0]))
		}
		copy(wantM[p*n:], hostPolyMul(t, a[p*n:(p+1)*n], b[p*n:(p+1)*n], n, mod))
	}
	hit := false
	for seed := uint64(1); seed < 64 && !hit; seed++ {
		sched := faultSched(t, 6)
		sched.Sys.SetFaultInjector(faultinject.New(seed).
			SetRate(pim.SiteDPUTransient, 0.1).SetRate(pim.SiteDPUDead, 0.05))
		got, rep, err := RunVectorPolyMulModsSched(sched, a, b, n, 1, mods)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range wantM {
			if got[i] != wantM[i] {
				t.Fatalf("seed %d: pair %d coefficient %d = %d, want %d mod %d", seed, i/n, i%n, got[i], wantM[i], mods[i/n][0])
			}
		}
		hit = sched.Sys.FaultStats().DeadDPUs == 1 && rep.Retried > 0 && rep.Resharded > 0
	}
	if !hit {
		t.Fatal("mixed moduli: no seed in 1..63 produced one dead DPU with both a retry and a re-shard")
	}
}

// TestFaultSum109SurvivesFaults runs the 109-bit Sum — the width whose
// values each DPU folds once per launch — under transient faults that
// retry shards and under a DPU dying mid-run, whose shards are re-placed
// on survivors. Each faulted run is bit-exact to a clean one and tallies
// the same operations: a retried or re-placed shard's launch folds the
// MRAM it was staged into, and only the launches that ran are counted.
func TestFaultSum109SurvivesFaults(t *testing.T) {
	mod := modulusFor(t, 4)
	rng := rand.New(rand.NewSource(4803))
	vecs := make([][]uint32, 6)
	for v := range vecs {
		vecs[v] = randVec(rng, 300, mod)
	}
	want, clean, err := RunVectorSumSched(faultSched(t, 6), vecs, 4, mod.Q)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		site string
		rate float64
		hit  func(rep *pimsched.Report) bool
	}{
		{"transient retry", pim.SiteDPUTransient, 0.3, func(rep *pimsched.Report) bool { return rep.Retried > 0 }},
		{"dead-DPU re-dispatch", pim.SiteDPUDead, 0.1, func(rep *pimsched.Report) bool { return rep.Resharded > 0 }},
	} {
		hit := false
		for seed := uint64(1); seed < 64 && !hit; seed++ {
			sched := faultSched(t, 6)
			sched.Sys.SetFaultInjector(faultinject.New(seed).SetRate(c.site, c.rate))
			got, rep, err := RunVectorSumSched(sched, vecs, 4, mod.Q)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: limb %d = %#x, clean run %#x", c.name, seed, i, got[i], want[i])
				}
			}
			if rep.Counts != clean.Counts {
				t.Fatalf("%s seed %d: counts %v, clean run %v", c.name, seed, rep.Counts, clean.Counts)
			}
			hit = c.hit(rep)
		}
		if !hit {
			t.Fatalf("%s: no seed in 1..63 injected the fault", c.name)
		}
	}
}

// TestFaultNTTPolyMulSurvivesFaults: the NTT driver is a plan like the
// others, so it inherits retry and re-sharding. Under 10% transient
// faults and a DPU dying mid-run the output stays byte-identical to the
// clean run.
func TestFaultNTTPolyMulSurvivesFaults(t *testing.T) {
	n, pairs := 64, 12
	plan := testPlan(t, n)
	a := make([]uint32, pairs*n)
	b := make([]uint32, pairs*n)
	for i := range a {
		a[i] = uint32(uint64(i*7+3) % plan.Q)
		b[i] = uint32(uint64(i*11+5) % plan.Q)
	}
	want, _, err := RunNTTPolyMulSched(faultSched(t, 6), plan, a, b)
	if err != nil {
		t.Fatal(err)
	}

	hit := false
	for seed := uint64(1); seed < 64 && !hit; seed++ {
		sched := faultSched(t, 6)
		sched.Sys.SetFaultInjector(faultinject.New(seed).
			SetRate(pim.SiteDPUTransient, 0.1).SetRate(pim.SiteDPUDead, 0.05))
		got, rep, err := RunNTTPolyMulSched(sched, plan, a, b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: word %d = %d, want %d", seed, i, got[i], want[i])
			}
		}
		hit = sched.Sys.FaultStats().DeadDPUs == 1 && rep.Retried > 0 && rep.Resharded > 0
	}
	if !hit {
		t.Fatal("no seed in 1..63 produced one dead DPU with both a retry and a re-shard")
	}
}
