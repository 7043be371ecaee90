package hestats

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/bfv"
	"repro/internal/hepim"
	"repro/internal/pim"
	"repro/internal/sampling"
)

// statsParams: toy ring with a plaintext modulus big enough for sums of
// squares (t = 257).
func statsParams(t *testing.T) *bfv.Parameters {
	t.Helper()
	q, _ := new(big.Int).SetString("1152921504606846883", 10)
	p, err := bfv.NewParameters(64, q, 257, 20)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

type rig struct {
	params *bfv.Parameters
	enc    *bfv.Encryptor
	dec    *bfv.Decryptor
	host   *HostEngine
	pimSrv *hepim.Server
}

func newRig(t *testing.T, seed uint64) *rig {
	t.Helper()
	params := statsParams(t)
	src := sampling.NewSourceFromUint64(seed)
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	cfg := pim.DefaultConfig()
	cfg.NumDPUs = 4
	srv, err := hepim.NewServer(cfg, params, rlk)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		params: params,
		enc:    bfv.NewEncryptor(params, pk, src),
		dec:    bfv.NewDecryptor(params, sk),
		host:   &HostEngine{Eval: bfv.NewEvaluator(params, rlk)},
		pimSrv: srv,
	}
}

func (r *rig) encryptAll(t *testing.T, vals []uint64) []*bfv.Ciphertext {
	t.Helper()
	cts := make([]*bfv.Ciphertext, len(vals))
	for i, v := range vals {
		ct, err := r.enc.EncryptValue(v)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	return cts
}

func TestMeanOnBothEngines(t *testing.T) {
	r := newRig(t, 1)
	vals := []uint64{2, 4, 6, 8, 10, 12}
	want := 7.0
	for _, eng := range []Engine{r.host, Engine(r.pimSrv)} {
		cts := r.encryptAll(t, vals)
		m, err := Mean(eng, cts)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Decrypt(r.dec); got != want {
			t.Errorf("mean = %v, want %v", got, want)
		}
		if m.Count != len(vals) {
			t.Errorf("count = %d", m.Count)
		}
	}
}

func TestMeanEmpty(t *testing.T) {
	r := newRig(t, 2)
	if _, err := Mean(r.host, nil); err == nil {
		t.Error("empty mean accepted")
	}
}

func TestVarianceOnBothEngines(t *testing.T) {
	r := newRig(t, 3)
	vals := []uint64{1, 2, 3, 4}
	// E[x²] = 30/4 = 7.5; E[x]² = 2.5² = 6.25 → var = 1.25.
	want := 1.25
	for _, eng := range []Engine{r.host, Engine(r.pimSrv)} {
		cts := r.encryptAll(t, vals)
		v, err := Variance(eng, cts)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.Decrypt(r.dec); math.Abs(got-want) > 1e-9 {
			t.Errorf("variance = %v, want %v", got, want)
		}
	}
}

func TestVarianceOfConstantIsZero(t *testing.T) {
	r := newRig(t, 4)
	cts := r.encryptAll(t, []uint64{5, 5, 5})
	v, err := Variance(r.host, cts)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Decrypt(r.dec); got != 0 {
		t.Errorf("variance of constant = %v", got)
	}
}

func TestLinRegPredictOnBothEngines(t *testing.T) {
	r := newRig(t, 5)
	// Model: y = 2·x1 + 3·x2 + 1·x3 (3 features, as in the paper).
	weights := r.encryptAll(t, []uint64{2, 3, 1})
	model := &LinRegModel{Weights: weights}
	samples := [][]*bfv.Ciphertext{
		r.encryptAll(t, []uint64{1, 1, 1}), // 2+3+1 = 6
		r.encryptAll(t, []uint64{4, 0, 2}), // 8+0+2 = 10
	}
	want := []uint64{6, 10}
	for _, eng := range []Engine{r.host, Engine(r.pimSrv)} {
		preds, err := model.Predict(eng, samples)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range preds {
			if got := r.dec.DecryptValue(p); got != want[i] {
				t.Errorf("prediction %d = %d, want %d", i, got, want[i])
			}
		}
	}
}

func TestLinRegFeatureCountMismatch(t *testing.T) {
	r := newRig(t, 6)
	model := &LinRegModel{Weights: r.encryptAll(t, []uint64{1, 2, 3})}
	bad := [][]*bfv.Ciphertext{r.encryptAll(t, []uint64{1, 2})}
	if _, err := model.Predict(r.host, bad); err == nil {
		t.Error("feature mismatch accepted")
	}
}

func TestPIMAndHostAgreeBitExact(t *testing.T) {
	// The PIM engine must produce byte-identical ciphertexts to the host
	// for the full variance pipeline (sums and squares).
	r := newRig(t, 7)
	vals := []uint64{3, 1, 4, 1}
	cts := r.encryptAll(t, vals)
	vHost, err := Variance(r.host, cts)
	if err != nil {
		t.Fatal(err)
	}
	vPIM, err := Variance(r.pimSrv, cts)
	if err != nil {
		t.Fatal(err)
	}
	if !vHost.Sum.Equal(vPIM.Sum) {
		t.Error("Σx differs between host and PIM")
	}
	if !vHost.SumSquares.Equal(vPIM.SumSquares) {
		t.Error("Σx² differs between host and PIM")
	}
}

func TestHostEngineSumEmpty(t *testing.T) {
	r := newRig(t, 8)
	if _, err := r.host.Sum(nil); err == nil {
		t.Error("empty host sum accepted")
	}
}
