package hepim

import (
	"reflect"
	"testing"

	"repro/internal/bfv"
	"repro/internal/pim"
	"repro/internal/pim/kernels"
	"repro/internal/pimsched"
	"repro/internal/sampling"
)

// multiRankFixture builds a server over an explicit multi-rank
// topology so the sharded breakdown exercises the overlap path.
func multiRankFixture(t *testing.T) *fixture {
	t.Helper()
	return topologyFixture(t, bfv.ParamsToy(), pimsched.Topology{Ranks: 4, DPUsPerRank: 4}, true)
}

// topologyFixture builds keys and a server over an explicit topology.
// The relinearization key is generated only when a test multiplies.
func topologyFixture(tb testing.TB, params *bfv.Parameters, topo pimsched.Topology, relin bool) *fixture {
	tb.Helper()
	src := sampling.NewSourceFromUint64(5)
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	var rlk *bfv.RelinKey
	if relin {
		rlk = kg.GenRelinKey(sk)
	}
	cfg := pim.DefaultConfig()
	cfg.NumDPUs = topo.NumDPUs()
	srv, err := NewServerWithTopology(cfg, params, rlk, topo)
	if err != nil {
		tb.Fatal(err)
	}
	return &fixture{
		params: params,
		sk:     sk,
		enc:    bfv.NewEncryptor(params, pk, src),
		dec:    bfv.NewDecryptor(params, sk),
		eval:   bfv.NewEvaluator(params, rlk),
		srv:    srv,
	}
}

func TestBreakdownAggregatesSchedReports(t *testing.T) {
	f := multiRankFixture(t)
	ct1, _ := f.enc.EncryptValue(3)
	ct2, _ := f.enc.EncryptValue(9)
	got, err := f.srv.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.eval.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("PIM Mul differs from host evaluator")
	}
	bd := f.srv.Breakdown()
	if bd.Topology != f.srv.Sched.Topo || !bd.Overlap {
		t.Errorf("breakdown topology/overlap not carried: %+v", bd)
	}
	// Mul is four kernel runs: tensor, digit products, two sums.
	if f.srv.Runs() != 4 {
		t.Errorf("Mul recorded %d kernel runs, want 4", f.srv.Runs())
	}
	if bd.Launches == 0 || bd.Shards == 0 || bd.KernelCycles <= 0 {
		t.Errorf("empty breakdown: %+v", bd)
	}
	if bd.BytesIn <= 0 || bd.BytesOut <= 0 || bd.EnergyKernelJoules <= 0 || bd.EnergyTransferJoules <= 0 {
		t.Errorf("breakdown missing transfer/energy accounting: %+v", bd)
	}
	if bd.MakespanSeconds <= 0 || bd.SerialSeconds < bd.MakespanSeconds {
		t.Errorf("makespan/serial inconsistent: makespan=%g serial=%g",
			bd.MakespanSeconds, bd.SerialSeconds)
	}
}

// TestBreakdownIsARunningTotal pins that the server keeps one total and
// nothing per run: Breakdown() costs the same after 10× the calls, and
// the total is the field-wise sum of the reports the driver returned.
func TestBreakdownIsARunningTotal(t *testing.T) {
	f := multiRankFixture(t)
	ct1, _ := f.enc.EncryptValue(3)
	ct2, _ := f.enc.EncryptValue(9)

	// The report one Add produces, from a twin scheduler fed the same
	// flattened operands (the simulation is deterministic).
	twin := multiRankFixture(t).srv.Sched
	a := append(append([]uint32{}, ct1.Polys[0].C...), ct1.Polys[1].C...)
	b := append(append([]uint32{}, ct2.Polys[0].C...), ct2.Polys[1].C...)
	_, one, err := kernels.RunVectorAddSched(twin, a, b, f.params.Q.W, f.params.Q.Q)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	want := pimsched.Report{Topology: twin.Topo, Overlap: true}
	addN := func(k int) {
		for i := 0; i < k; i++ {
			if _, err := f.srv.Add(ct1, ct2); err != nil {
				t.Fatal(err)
			}
			want.Accumulate(one)
		}
	}
	addN(n)
	allocsN := testing.AllocsPerRun(20, func() { f.srv.Breakdown() })
	addN(9 * n)
	allocs10N := testing.AllocsPerRun(20, func() { f.srv.Breakdown() })
	if allocsN != allocs10N {
		t.Errorf("Breakdown() allocates %v after %d runs but %v after %d", allocsN, n, allocs10N, 10*n)
	}
	if f.srv.Runs() != 10*n || *f.srv.Breakdown() != want {
		t.Errorf("after %d Adds: %d runs, total\n%+v\nwant the sum of the per-run reports\n%+v",
			10*n, f.srv.Runs(), f.srv.Breakdown(), want)
	}
	for i, typ := 0, reflect.TypeOf(Server{}); i < typ.NumField(); i++ {
		if k := typ.Field(i).Type.Kind(); k == reflect.Slice || k == reflect.Map {
			t.Errorf("Server.%s is a %s: per-run state must not be retained", typ.Field(i).Name, k)
		}
	}
}
