package kernels

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/limb32"
	"repro/internal/pim"
	"repro/internal/pimsched"
	"repro/internal/poly"
)

// TestSchedDriversMatchHostAcrossRanks checks every driver against its
// host reference on a multi-rank topology, across widths.
func TestSchedDriversMatchHostAcrossRanks(t *testing.T) {
	topo := pimsched.Topology{Ranks: 3, DPUsPerRank: 4}
	rng := rand.New(rand.NewSource(42))
	equal := func(name string, got, want []uint32) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d]: PIM %d != host %d", name, i, got[i], want[i])
			}
		}
	}
	for _, w := range []int{1, 2} {
		mod := modulusFor(t, w)
		a := randVec(rng, 96, mod)
		b := randVec(rng, 96, mod)
		sched := testSched(t, topo, 2)

		gotAdd, rep, err := RunVectorAddSched(sched, a, b, w, mod.Q)
		if err != nil {
			t.Fatal(err)
		}
		equal("add", gotAdd, hostAdd(a, b, mod))
		if rep.RanksUsed != 3 {
			t.Errorf("w=%d: used %d ranks, want 3", w, rep.RanksUsed)
		}

		gotMul, _, err := RunVectorPolyMulSched(sched, a, b, 8, w, mod.Q)
		if err != nil {
			t.Fatal(err)
		}
		equal("polymul", gotMul, hostPolyMul(t, a, b, 8, mod))

		gotSum, _, err := RunVectorSumSched(sched, [][]uint32{a, b, a}, w, mod.Q)
		if err != nil {
			t.Fatal(err)
		}
		equal("sum", gotSum, hostAdd(hostAdd(a, b, mod), a, mod))
	}
}

// TestSchedDeadDPUMidPipeline kills DPUs during a sharded async run and
// checks the re-dispatch keeps results bit-identical to the oracle and
// the run deterministic across reruns.
func TestSchedDeadDPUMidPipeline(t *testing.T) {
	topo := pimsched.Topology{Ranks: 4, DPUsPerRank: 4}
	q := limb32.Nat{4294967291}
	a, b := testVectors(512, 1, q)
	want := addOracle(a, b, 1, q)

	run := func(seed uint64) (*pimsched.Report, pim.FaultStats) {
		sched := testSched(t, topo, 2)
		sched.Sys.SetFaultInjector(faultinject.New(seed).SetRate(pim.SiteDPUDead, 0.1))
		got, rep, err := RunVectorAddSched(sched, a, b, 1, q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: diverged from oracle at %d", seed, i)
			}
		}
		return rep, sched.Sys.FaultStats()
	}

	var seed uint64
	for s := uint64(1); s < 64; s++ {
		sched := testSched(t, topo, 2)
		sched.Sys.SetFaultInjector(faultinject.New(s).SetRate(pim.SiteDPUDead, 0.1))
		if _, rep, err := RunVectorAddSched(sched, a, b, 1, q); err == nil && rep.Resharded > 0 {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no seed in 1..63 triggered a dead-DPU re-dispatch")
	}
	rep1, st1 := run(seed)
	rep2, st2 := run(seed)
	if rep1.Resharded == 0 {
		t.Fatal("expected re-dispatched shards")
	}
	if *rep1 != *rep2 || st1 != st2 {
		t.Errorf("faulted async runs not deterministic:\n%+v\n%+v\nstats %+v vs %+v", rep1, rep2, st1, st2)
	}
}

// TestSchedStragglerStretchesMakespanOnly pins the straggler
// semantics on the async path: modeled times inflate, results do not.
func TestSchedStragglerStretchesMakespanOnly(t *testing.T) {
	topo := pimsched.Topology{Ranks: 2, DPUsPerRank: 4}
	q := limb32.Nat{4294967291}
	a, b := testVectors(256, 1, q)
	want := addOracle(a, b, 1, q)

	clean := testSched(t, topo, 2)
	_, cleanRep, err := RunVectorAddSched(clean, a, b, 1, q)
	if err != nil {
		t.Fatal(err)
	}

	slow := testSched(t, topo, 2)
	slow.Sys.SetFaultInjector(faultinject.New(3).SetRate(pim.SiteDPUStraggler, 1))
	got, slowRep, err := RunVectorAddSched(slow, a, b, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("straggling run diverged at %d", i)
		}
	}
	if !(slowRep.MakespanSeconds > cleanRep.MakespanSeconds) {
		t.Errorf("straggling makespan %g not above clean %g",
			slowRep.MakespanSeconds, cleanRep.MakespanSeconds)
	}
}

// TestDeclaredBytesAreCopiedBytes: the transfer model prices the bytes
// a plan declares, so on a clean run they must equal the bytes its
// closures actually copied.
func TestDeclaredBytesAreCopiedBytes(t *testing.T) {
	n, pairs := 16, 7 // 7 pairs over 3 DPUs: uneven shards
	ntt := testPlan(t, n)
	mod, err := poly.NewModulus(new(big.Int).SetUint64(ntt.Q))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	a, b := randVec(rng, pairs*n, mod), randVec(rng, pairs*n, mod)
	sched := testSched(t, pimsched.Topology{Ranks: 3, DPUsPerRank: 1}, 2)
	for name, run := range map[string]func() (*pimsched.Report, error){
		"add": func() (*pimsched.Report, error) { _, r, err := RunVectorAddSched(sched, a, b, 1, mod.Q); return r, err },
		"sum": func() (*pimsched.Report, error) {
			_, r, err := RunVectorSumSched(sched, [][]uint32{a, b, a}, 1, mod.Q)
			return r, err
		},
		"polymul": func() (*pimsched.Report, error) {
			_, r, err := RunVectorPolyMulSched(sched, a, b, n, 1, mod.Q)
			return r, err
		},
		"ntt": func() (*pimsched.Report, error) { _, r, err := RunNTTPolyMulSched(sched, ntt, a, b); return r, err },
	} {
		in0, out0 := sched.Sys.TransferBytes()
		rep, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in1, out1 := sched.Sys.TransferBytes()
		if in1-in0 != rep.BytesIn || out1-out0 != rep.BytesOut {
			t.Errorf("%s: copied (%d, %d) bytes, declared (%d, %d)", name, in1-in0, out1-out0, rep.BytesIn, rep.BytesOut)
		}
	}
}
