package hepim

import (
	"testing"

	"repro/internal/bfv"
	"repro/internal/pim"
	"repro/internal/pimsched"
	"repro/internal/sampling"
)

type fixture struct {
	params *bfv.Parameters
	sk     *bfv.SecretKey
	enc    *bfv.Encryptor
	dec    *bfv.Decryptor
	eval   *bfv.Evaluator
	srv    *Server
}

// newServer builds a server over the largest whole-rank topology that
// fits cfg.NumDPUs, with transfer/compute overlap on.
func newServer(cfg pim.SystemConfig, params *bfv.Parameters, rlk *bfv.RelinKey) (*Server, error) {
	return NewServerWithTopology(cfg, params, rlk, pimsched.FitTopology(cfg.NumDPUs), true)
}

func newFixture(t *testing.T, seed uint64) *fixture {
	t.Helper()
	params := bfv.ParamsToy()
	src := sampling.NewSourceFromUint64(seed)
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)

	cfg := pim.DefaultConfig()
	cfg.NumDPUs = 8
	srv, err := newServer(cfg, params, rlk)
	if err != nil {
		t.Fatal(err)
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

func TestServerAddMatchesHostBitExact(t *testing.T) {
	f := newFixture(t, 1)
	ct1, _ := f.enc.EncryptValue(3)
	ct2, _ := f.enc.EncryptValue(9)
	got, err := f.srv.Add(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	want := f.eval.Add(ct1, ct2)
	if !got.Equal(want) {
		t.Fatal("PIM Add differs from host evaluator")
	}
	if v := f.dec.Decrypt(got).Coeffs[0]; v != 12 {
		t.Errorf("decrypt(PIM add) = %d", v)
	}
	if f.srv.Runs() == 0 || f.srv.Breakdown().KernelSeconds <= 0 {
		t.Error("server recorded no kernel time")
	}
}

func TestServerSumMatchesHost(t *testing.T) {
	f := newFixture(t, 2)
	var cts []*bfv.Ciphertext
	want := uint64(0)
	for i := uint64(1); i <= 10; i++ {
		ct, _ := f.enc.EncryptValue(i % 4)
		cts = append(cts, ct)
		want += i % 4
	}
	got, err := f.srv.Sum(cts)
	if err != nil {
		t.Fatal(err)
	}
	// Host reference: fold with the evaluator.
	ref := cts[0]
	for _, ct := range cts[1:] {
		ref = f.eval.Add(ref, ct)
	}
	if !got.Equal(ref) {
		t.Fatal("PIM Sum differs from host fold")
	}
	if v := f.dec.Decrypt(got).Coeffs[0]; v != want%f.params.T {
		t.Errorf("decrypt(PIM sum) = %d, want %d", v, want%f.params.T)
	}
}

func TestServerSumErrors(t *testing.T) {
	f := newFixture(t, 3)
	if _, err := f.srv.Sum(nil); err == nil {
		t.Error("empty sum accepted")
	}
}

func TestServerMulMatchesHostBitExact(t *testing.T) {
	f := newFixture(t, 4)
	ct1, _ := f.enc.EncryptValue(3)
	ct2, _ := f.enc.EncryptValue(5)
	got, err := f.srv.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.eval.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("PIM Mul differs from host evaluator (not bit-exact)")
	}
	if v := f.dec.Decrypt(got).Coeffs[0]; v != 15 {
		t.Errorf("decrypt(PIM mul) = %d, want 15", v)
	}
}

func TestServerSquareForVariance(t *testing.T) {
	f := newFixture(t, 5)
	ct, _ := f.enc.EncryptValue(3)
	sq, err := f.srv.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if v := f.dec.Decrypt(sq).Coeffs[0]; v != 9 {
		t.Errorf("decrypt(PIM square) = %d, want 9", v)
	}
}

func TestServerMulThenAddPipeline(t *testing.T) {
	// A small encrypted pipeline entirely on the PIM server:
	// (2*3) + (4*2) = 14.
	f := newFixture(t, 6)
	a, _ := f.enc.EncryptValue(2)
	b, _ := f.enc.EncryptValue(3)
	c, _ := f.enc.EncryptValue(4)
	ab, err := f.srv.Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := f.srv.Mul(c, a)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := f.srv.Add(ab, cd)
	if err != nil {
		t.Fatal(err)
	}
	if v := f.dec.Decrypt(sum).Coeffs[0]; v != 14 {
		t.Errorf("pipeline result = %d, want 14", v)
	}
}

func TestServerMulRequiresRelinKey(t *testing.T) {
	params := bfv.ParamsToy()
	src := sampling.NewSourceFromUint64(7)
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	_ = sk
	cfg := pim.DefaultConfig()
	cfg.NumDPUs = 2
	srv, err := newServer(cfg, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := bfv.NewEncryptor(params, pk, src)
	ct, _ := enc.EncryptValue(1)
	if _, err := srv.Mul(ct, ct); err == nil {
		t.Error("Mul without relin key accepted")
	}
}

func TestServerAddDegreeMismatch(t *testing.T) {
	f := newFixture(t, 8)
	ct, _ := f.enc.EncryptValue(1)
	d2, err := f.eval.MulNoRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Add(ct, d2); err == nil {
		t.Error("degree mismatch accepted")
	}
}

func TestResetReports(t *testing.T) {
	f := newFixture(t, 9)
	ct, _ := f.enc.EncryptValue(1)
	if _, err := f.srv.Add(ct, ct); err != nil {
		t.Fatal(err)
	}
	if f.srv.Runs() == 0 {
		t.Fatal("no reports recorded")
	}
	f.srv.ResetReports()
	want := pimsched.Report{Topology: f.srv.Sched.Topo, Overlap: true}
	if f.srv.Runs() != 0 || *f.srv.Breakdown() != want {
		t.Errorf("ResetReports did not clear: %d runs, %+v", f.srv.Runs(), f.srv.Breakdown())
	}
}
