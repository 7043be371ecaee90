package hepim

import (
	"testing"

	"repro/internal/bfv"
	"repro/internal/faultinject"
	"repro/internal/pim"
)

// TestSumPlanFollowsDeadDPUs runs a Sum during which DPUs die, then a
// clean Sum on the same server. The second Sum's plan is compiled again
// for the survivors: one shard per live DPU, none placed on a dead one
// (no shard re-placed), and the result is the host's, bit for bit.
func TestSumPlanFollowsDeadDPUs(t *testing.T) {
	var f *fixture
	var cts []*bfv.Ciphertext
	for seed := uint64(1); ; seed++ {
		if seed == 64 {
			t.Fatal("no seed in 1..63 kills a DPU during the first Sum")
		}
		f = multiRankFixture(t)
		cts = f.encryptMany(t, 5)
		f.srv.Sys.SetFaultInjector(faultinject.New(seed).SetRate(pim.SiteDPUDead, 0.05))
		got, err := f.srv.Sum(cts)
		if err != nil {
			continue // every DPU of some shard died: try another seed
		}
		if !got.Equal(f.hostSum(cts)) {
			t.Fatal("faulted PIM Sum differs from host evaluator")
		}
		if f.srv.Breakdown().Resharded > 0 {
			break
		}
	}
	f.srv.Sys.SetFaultInjector(nil)
	live := len(f.srv.Sys.LiveDPUIDs())

	f.srv.ResetReports()
	got, err := f.srv.Sum(cts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(f.hostSum(cts)) {
		t.Fatal("PIM Sum after DPU deaths differs from host evaluator")
	}
	bd := f.srv.Breakdown()
	comps := len(cts[0].Polys)
	if bd.Resharded != 0 || bd.Retried != 0 {
		t.Errorf("clean Sum re-placed %d shard(s) and retried %d: its plan still names a dead DPU", bd.Resharded, bd.Retried)
	}
	if bd.Shards != comps*live || bd.ActiveDPUs != live {
		t.Errorf("clean Sum ran %d shards on %d DPUs, want %d on the %d survivors",
			bd.Shards, bd.ActiveDPUs, comps*live, live)
	}
}

// TestSumPlanFollowsShape runs Sums of 64, 3 and 64 ciphertexts on one
// server: each reports the same simulated work as the same Sum on a
// fresh server, so a kept plan is used only for the shape it was
// compiled for.
func TestSumPlanFollowsShape(t *testing.T) {
	shared := multiRankFixture(t)
	cts := shared.encryptMany(t, 64)
	for _, m := range []int{64, 3, 64} {
		shared.srv.ResetReports()
		got, err := shared.srv.Sum(cts[:m])
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(shared.hostSum(cts[:m])) {
			t.Fatalf("Sum of %d differs from host evaluator", m)
		}
		fresh := multiRankFixture(t)
		if _, err := fresh.srv.Sum(cts[:m]); err != nil {
			t.Fatal(err)
		}
		if a, b := shared.srv.Breakdown(), fresh.srv.Breakdown(); *a != *b {
			t.Errorf("Sum of %d on a server that ran other shapes reports\n%+v\nand on a fresh server\n%+v", m, a, b)
		}
	}
}
