package hepim

import (
	"testing"

	"repro/internal/bfv"
	"repro/internal/pim"
	"repro/internal/pim/kernels"
	"repro/internal/pimsched"
	"repro/internal/sampling"
)

func TestServerApplyGaloisMatchesHostBitExact(t *testing.T) {
	f := newFixture(t, 20)
	src := sampling.NewSourceFromUint64(200)
	kg := bfv.NewKeyGenerator(f.params, src)
	gk, err := kg.GenGaloisKey(f.sk, 3)
	if err != nil {
		t.Fatal(err)
	}
	pt := bfv.NewPlaintext(f.params)
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i % int(f.params.T))
	}
	ct, err := f.enc.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}

	want, err := f.eval.ApplyGalois(ct, gk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.srv.ApplyGalois(ct, gk)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-identity with the host evaluator carries its plaintext check
	// (bfv's TestApplyGaloisMatchesPlaintextAutomorphism) over to PIM.
	if !got.Equal(want) {
		t.Fatal("PIM ApplyGalois differs from host evaluator")
	}
}

func TestServerApplyGaloisErrors(t *testing.T) {
	f := newFixture(t, 21)
	ct, _ := f.enc.EncryptValue(1)
	if _, err := f.srv.ApplyGalois(ct, nil); err == nil {
		t.Error("nil key accepted")
	}
	d2, err := f.eval.MulNoRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	src := sampling.NewSourceFromUint64(201)
	kg := bfv.NewKeyGenerator(f.params, src)
	gk, _ := kg.GenGaloisKey(f.sk, 3)
	if _, err := f.srv.ApplyGalois(d2, gk); err == nil {
		t.Error("degree-2 ciphertext accepted")
	}
}

// TestServerDeterministic: launching the same workload twice must produce
// identical results AND identical cycle reports — the simulation has no
// hidden nondeterminism despite host-side goroutine parallelism.
func TestServerDeterministic(t *testing.T) {
	run := func() (int64, *bfv.Ciphertext) {
		params := bfv.ParamsToy()
		src := sampling.NewSourceFromUint64(77)
		kg := bfv.NewKeyGenerator(params, src)
		sk, pk := kg.GenKeyPair()
		rlk := kg.GenRelinKey(sk)
		cfg := pim.DefaultConfig()
		cfg.NumDPUs = 8
		srv, err := newServer(cfg, params, rlk)
		if err != nil {
			t.Fatal(err)
		}
		enc := bfv.NewEncryptor(params, pk, src)
		a, _ := enc.EncryptValue(3)
		b, _ := enc.EncryptValue(4)
		prod, err := srv.Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return srv.Breakdown().KernelCycles, prod
	}
	c1, p1 := run()
	c2, p2 := run()
	if c1 != c2 {
		t.Errorf("cycle counts differ across identical runs: %d vs %d", c1, c2)
	}
	if !p1.Equal(p2) {
		t.Error("results differ across identical runs")
	}
}

// TestWRAMExhaustionSurfacesAsError: a configuration whose per-tasklet
// working set cannot fit in WRAM must fail loudly, not silently truncate.
func TestWRAMExhaustionSurfacesAsError(t *testing.T) {
	cfg := pim.DefaultConfig()
	cfg.NumDPUs = 1
	cfg.Tasklets = 1 // one tasklet owns all n output accumulators
	sys, err := pim.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := pimsched.New(sys, pimsched.FitTopology(1), false)
	if err != nil {
		t.Fatal(err)
	}
	// n=1024 with 8-limb coefficients: accumulators alone need
	// 2*1024*17 = 34816 words > 16384 WRAM words.
	n := 1024
	w := 8
	q := make([]uint32, w)
	for i := range q {
		q[i] = 0xffffffff
	}
	a := make([]uint32, n*w)
	b := make([]uint32, n*w)
	a[0], b[0] = 1, 1
	_, _, err = kernels.RunVectorPolyMulSched(sched, a, b, n, w, q)
	if err == nil {
		t.Fatal("expected WRAM exhaustion error")
	}
}
