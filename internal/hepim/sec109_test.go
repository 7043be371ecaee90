package hepim

import (
	"testing"

	"repro/internal/bfv"
	"repro/internal/pim"
	"repro/internal/sampling"
)

// TestSec109AdditionPipelineRealParams runs the paper's flagship
// parameter set (N=4096, 109-bit q, 128-bit coefficients) through the
// full encrypted-mean pipeline on the simulated PIM system.
func TestSec109AdditionPipelineRealParams(t *testing.T) {
	params := bfv.ParamsSec109()
	src := sampling.NewSourceFromUint64(109)
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	enc := bfv.NewEncryptor(params, pk, src)
	dec := bfv.NewDecryptor(params, sk)

	cfg := pim.DefaultConfig()
	cfg.NumDPUs = 32
	srv, err := newServer(cfg, params, nil)
	if err != nil {
		t.Fatal(err)
	}

	vals := []uint64{3, 7, 1, 5}
	var cts []*bfv.Ciphertext
	var want uint64
	for _, v := range vals {
		ct, err := enc.EncryptValue(v)
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct)
		want += v
	}
	sum, err := srv.Sum(cts)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Decrypt(sum).Coeffs[0]; got != want%params.T {
		t.Errorf("sec109 PIM sum = %d, want %d", got, want%params.T)
	}
	if b := dec.NoiseBudget(sum); b <= 0 {
		t.Errorf("sec109 budget exhausted: %d", b)
	}
	// The kernel report must reflect the real 128-bit workload.
	if srv.Runs() == 0 {
		t.Fatal("no kernel reports")
	}
	if srv.Breakdown().KernelSeconds <= 0 {
		t.Error("no modeled kernel time")
	}
}
