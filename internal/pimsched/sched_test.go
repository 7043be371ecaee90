package pimsched

import (
	"slices"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/limb32"
	"repro/internal/pim"
)

const testQ = 0x7fffffff // 2^31 - 1, a single-limb modulus

func testSystem(t *testing.T, topo Topology) *pim.System {
	t.Helper()
	cfg := pim.DefaultConfig()
	cfg.NumDPUs = topo.NumDPUs()
	cfg.Tasklets = 4
	sys, err := pim.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// addKernel is a minimal single-limb vector-add tasklet program over a
// shard laid out as [a | b | out] in MRAM, coeffs words each.
func addKernel(coeffs int) pim.KernelFunc {
	return func(ctx *pim.TaskletCtx) error {
		s, e := pim.Partition(coeffs, ctx.NumTasklets, ctx.TaskletID)
		if s == e {
			return nil
		}
		n := e - s
		a := make([]uint32, n)
		b := make([]uint32, n)
		out := make([]uint32, n)
		ctx.MRAMRead(s, a)
		ctx.MRAMRead(coeffs+s, b)
		q := limb32.Nat{testQ}
		for i := 0; i < n; i++ {
			limb32.AddMod(out[i:i+1], a[i:i+1], b[i:i+1], q, ctx.Meter())
		}
		ctx.MRAMWrite(2*coeffs+s, out)
		return nil
	}
}

// runShards compiles shards into a plan and runs it once.
func (s *Scheduler) runShards(in [][]uint32, out []uint32, shards []Shard) (*Report, error) {
	p, err := s.Compile(shards)
	if err != nil {
		return nil, err
	}
	return s.Run(p, in, out)
}

// vectorAddShards cuts a⊕b into nShards pimsched shards writing into
// out, and returns the inputs, output and shards runShards takes.
func vectorAddShards(a, b, out []uint32, nShards int) ([][]uint32, []uint32, []Shard) {
	shards := make([]Shard, nShards)
	for i := range shards {
		s, e := pim.Partition(len(a), nShards, i)
		shards[i] = Shard{Lo: s, Hi: e, Kernel: addKernel(e - s)}
	}
	return [][]uint32{a, b}, out, shards
}

func testVectors(n int) (a, b, want []uint32) {
	a = make([]uint32, n)
	b = make([]uint32, n)
	want = make([]uint32, n)
	for i := range a {
		a[i] = uint32(i*2654435761+17) % testQ
		b[i] = uint32(i*40503+99991) % testQ
		want[i] = uint32((uint64(a[i]) + uint64(b[i])) % testQ)
	}
	return
}

func runAdd(t *testing.T, sys *pim.System, topo Topology, overlap bool, nCoeffs, nShards int, want []uint32) *Report {
	t.Helper()
	a, b, _ := testVectors(nCoeffs)
	out := make([]uint32, nCoeffs)
	sched, err := New(sys, topo, overlap)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sched.runShards(vectorAddShards(a, b, out, nShards))
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
	return rep
}

func TestVectorAddBitIdentical(t *testing.T) {
	topo := Topology{Ranks: 4, DPUsPerRank: 8}
	_, _, want := testVectors(1000)
	// More shards than DPUs: exercises multiple waves through the pipeline.
	rep := runAdd(t, testSystem(t, topo), topo, true, 1000, 48, want)
	if rep.Shards != 48 || rep.Launches < 4 {
		t.Errorf("report: %d shards in %d launches, want 48 shards across ≥4 launches", rep.Shards, rep.Launches)
	}
	if rep.RanksUsed != 4 || rep.ActiveDPUs != 32 {
		t.Errorf("RanksUsed=%d ActiveDPUs=%d, want 4 and 32", rep.RanksUsed, rep.ActiveDPUs)
	}
	if rep.BytesIn != 8*1000 || rep.BytesOut != 4*1000 {
		t.Errorf("bytes = (%d, %d), want (8000, 4000)", rep.BytesIn, rep.BytesOut)
	}
	if rep.MakespanSeconds <= 0 || rep.KernelCycles <= 0 || rep.EnergyKernelJoules <= 0 {
		t.Errorf("degenerate report: %+v", rep)
	}
}

// TestPanickingShardAbortsTheRunOnly: one shard whose kernel panics fails
// its Run with an ordinary, non-fault error — no retry rounds, no crash —
// and the same system then runs the next plan to the oracle's result.
func TestPanickingShardAbortsTheRunOnly(t *testing.T) {
	topo := Topology{Ranks: 2, DPUsPerRank: 4}
	sys := testSystem(t, topo)
	a, b, want := testVectors(200)
	sched, err := New(sys, topo, true)
	if err != nil {
		t.Fatal(err)
	}
	in, out, shards := vectorAddShards(a, b, make([]uint32, 200), 8)
	shards[5].Kernel = func(ctx *pim.TaskletCtx) error {
		ctx.MRAMWrite(1<<20, []uint32{1}) // far outside the staged shard
		return nil
	}
	rep, err := sched.runShards(in, out, shards)
	if err == nil || rep != nil || pim.IsFault(err) {
		t.Fatalf("Run with a panicking shard returned (%v, %v), want a non-fault error", rep, err)
	}
	if fs := sys.FaultStats(); fs.Retries != 0 || fs.Redispatches != 0 {
		t.Errorf("kernel panic was retried as a fault: %+v", fs)
	}
	runAdd(t, sys, topo, true, 200, 8, want)
}

func TestOverlapBeatsSerialOnMultiRank(t *testing.T) {
	topo := Topology{Ranks: 4, DPUsPerRank: 8}
	_, _, want := testVectors(4096)

	on := runAdd(t, testSystem(t, topo), topo, true, 4096, 32, want)
	off := runAdd(t, testSystem(t, topo), topo, false, 4096, 32, want)

	if on.SerialSeconds != off.SerialSeconds {
		t.Errorf("serial time differs across overlap modes: %g vs %g", on.SerialSeconds, off.SerialSeconds)
	}
	if off.MakespanSeconds != off.SerialSeconds {
		t.Errorf("overlap-off makespan %g != serial %g", off.MakespanSeconds, off.SerialSeconds)
	}
	if !(on.MakespanSeconds < on.SerialSeconds) {
		t.Errorf("overlap-on makespan %g not below serial %g on a 4-rank topology",
			on.MakespanSeconds, on.SerialSeconds)
	}
}

func TestSingleRankMakespanEqualsSerial(t *testing.T) {
	topo := Topology{Ranks: 1, DPUsPerRank: 8}
	_, _, want := testVectors(512)
	// Two waves on the same rank: nothing to overlap with, so the
	// pipeline collapses to the serial sum.
	rep := runAdd(t, testSystem(t, topo), topo, true, 512, 16, want)
	if diff := rep.MakespanSeconds - rep.SerialSeconds; diff < -1e-15 || diff > 1e-15 {
		t.Errorf("single-rank makespan %g != serial %g", rep.MakespanSeconds, rep.SerialSeconds)
	}
}

// deadSeed finds a seed whose dead-DPU schedule actually fires on this
// topology (the injector is a pure function of seed/site/key, so the
// search is deterministic).
func deadSeed(t *testing.T, topo Topology, rate float64, nCoeffs, nShards int) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 64; seed++ {
		sys := testSystem(t, topo)
		sys.SetFaultInjector(faultinject.New(seed).SetRate(pim.SiteDPUDead, rate))
		a, b, _ := testVectors(nCoeffs)
		out := make([]uint32, nCoeffs)
		sched, err := New(sys, topo, true)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sched.runShards(vectorAddShards(a, b, out, nShards))
		if err == nil && rep.Resharded > 0 {
			return seed
		}
	}
	t.Fatal("no seed in 1..63 produced a dead-DPU re-dispatch")
	return 0
}

func TestDeadDPUReshardsBitIdentically(t *testing.T) {
	topo := Topology{Ranks: 4, DPUsPerRank: 8}
	const nCoeffs, nShards = 2000, 32
	_, _, want := testVectors(nCoeffs)
	seed := deadSeed(t, topo, 0.08, nCoeffs, nShards)

	run := func() ([]uint32, *Report, pim.FaultStats) {
		sys := testSystem(t, topo)
		sys.SetFaultInjector(faultinject.New(seed).SetRate(pim.SiteDPUDead, 0.08))
		a, b, _ := testVectors(nCoeffs)
		out := make([]uint32, nCoeffs)
		sched, err := New(sys, topo, true)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sched.runShards(vectorAddShards(a, b, out, nShards))
		if err != nil {
			t.Fatal(err)
		}
		return out, rep, sys.FaultStats()
	}

	out1, rep1, st1 := run()
	out2, rep2, st2 := run()

	if rep1.Resharded == 0 {
		t.Fatal("seed stopped producing re-dispatches")
	}
	for i := range out1 {
		if out1[i] != want[i] {
			t.Fatalf("faulted run diverged from oracle at %d: %d != %d", i, out1[i], want[i])
		}
		if out1[i] != out2[i] {
			t.Fatalf("reruns diverged at %d", i)
		}
	}
	if *rep1 != *rep2 {
		t.Errorf("reports differ across identical reruns:\n%+v\n%+v", rep1, rep2)
	}
	if st1 != st2 {
		t.Errorf("fault stats differ across identical reruns: %+v vs %+v", st1, st2)
	}
}

func TestStragglerStretchesMakespanNotResults(t *testing.T) {
	topo := Topology{Ranks: 2, DPUsPerRank: 8}
	const nCoeffs, nShards = 1024, 16
	_, _, want := testVectors(nCoeffs)

	clean := runAdd(t, testSystem(t, topo), topo, true, nCoeffs, nShards, want)

	sys := testSystem(t, topo)
	sys.SetFaultInjector(faultinject.New(7).SetRate(pim.SiteDPUStraggler, 1))
	slow := runAdd(t, sys, topo, true, nCoeffs, nShards, want) // oracle check inside
	if !(slow.MakespanSeconds > clean.MakespanSeconds) {
		t.Errorf("straggling makespan %g not above clean %g", slow.MakespanSeconds, clean.MakespanSeconds)
	}
	if slow.KernelCycles <= clean.KernelCycles {
		t.Errorf("straggling cycles %d not above clean %d", slow.KernelCycles, clean.KernelCycles)
	}
}

// TestFaultedChunkPricesCopyOutOfShardsThatRan: a transient fault hits
// the DPU holding a chunk's largest shard. That chunk's copy-out is
// priced on the largest shard it gathers; the faulted shard's gather is
// priced once, by the retry's own chunk.
func TestFaultedChunkPricesCopyOutOfShardsThatRan(t *testing.T) {
	topo := Topology{Ranks: 1, DPUsPerRank: 4}
	const rate = 0.25
	// The injector is a pure function of (seed, site, key), and LaunchOn
	// keys each DPU's decision by (launch sequence, DPU ID): find a seed
	// whose first launch faults exactly one DPU, f, and whose second (the
	// retry, placed on DPU 0) does not.
	seed, f := uint64(0), -1
	for s := uint64(1); s < 256 && seed == 0; s++ {
		inj := faultinject.New(s).SetRate(pim.SiteDPUTransient, rate)
		var hit []int
		for id := 0; id < topo.NumDPUs(); id++ {
			if inj.Hit(pim.SiteDPUTransient, faultinject.Key(1, uint64(id))) {
				hit = append(hit, id)
			}
		}
		if len(hit) == 1 && !inj.Hit(pim.SiteDPUTransient, faultinject.Key(2, 0)) {
			seed, f = s, hit[0]
		}
	}
	if seed == 0 {
		t.Fatal("no seed in 1..255 faults exactly one DPU of the first launch")
	}

	// Shard j runs on DPU j in the first launch; f's is the largest.
	sizes := slices.Insert([]int{100, 200, 300}, f, 400)
	a, b, want := testVectors(1000)
	out := make([]uint32, len(a))
	var shards []Shard
	lo := 0
	for _, n := range sizes {
		shards = append(shards, Shard{Lo: lo, Hi: lo + n, Kernel: addKernel(n)})
		lo += n
	}

	sys := testSystem(t, topo)
	sys.SetFaultInjector(faultinject.New(seed).SetRate(pim.SiteDPUTransient, rate))
	sched, err := New(sys, topo, true)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sched.runShards([][]uint32{a, b}, out, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
	if rep.Launches != 2 || rep.Retried != 1 {
		t.Fatalf("%d launches, %d retried; want 2 and 1", rep.Launches, rep.Retried)
	}
	wantOut := sched.Xfer.OutSeconds(4*300) + sched.Xfer.OutSeconds(4*400)
	if rep.CopyOutSeconds != wantOut {
		t.Errorf("CopyOutSeconds = %g, want %g: the faulted chunk gathers 300 words at most, the retry 400",
			rep.CopyOutSeconds, wantOut)
	}
}

func TestTransientFaultBudgetExhausted(t *testing.T) {
	topo := Topology{Ranks: 1, DPUsPerRank: 4}
	sys := testSystem(t, topo)
	sys.SetFaultInjector(faultinject.New(1).SetRate(pim.SiteDPUTransient, 1))
	a, b, _ := testVectors(64)
	out := make([]uint32, 64)
	sched, err := New(sys, topo, true)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sched.runShards(vectorAddShards(a, b, out, 4))
	if !pim.IsFault(err) {
		t.Fatalf("expected fault-budget error, got %v", err)
	}
}

func TestTopologyHelpers(t *testing.T) {
	cases := []struct{ n, ranks, per int }{
		{1, 1, 1}, {17, 1, 17}, {64, 1, 64}, {65, 1, 64}, {2048, 32, 64}, {2524, 39, 64},
	}
	for _, c := range cases {
		topo := FitTopology(c.n)
		if topo.Ranks != c.ranks || topo.DPUsPerRank != c.per {
			t.Errorf("FitTopology(%d) = %v, want %d×%d", c.n, topo, c.ranks, c.per)
		}
		if topo.NumDPUs() > c.n {
			t.Errorf("FitTopology(%d) needs %d DPUs", c.n, topo.NumDPUs())
		}
	}
	if (Topology{Ranks: 0, DPUsPerRank: 4}).Validate() == nil {
		t.Error("zero-rank topology validated")
	}
}
