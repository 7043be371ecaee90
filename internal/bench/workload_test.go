package bench

import (
	"errors"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/bfv"
	"repro/internal/hepim"
	"repro/internal/pim"
	"repro/internal/pimsched"
	"repro/internal/sampling"
)

// Workload generation and functional verification. The paper-scale
// numbers come from models; these tests guarantee each figure's
// *pipeline* is real: for every figure there is a scaled-down functional
// run on the PIM simulator whose results are checked against plaintext
// recomputation and against the host evaluator, bit for bit.

// Workload synthesizes deterministic per-user survey data.
type Workload struct {
	Users      int
	CtsPerUser int
	MaxValue   uint64
	Seed       uint64
}

// Values returns the users × cts sample matrix.
func (w Workload) Values() [][]uint64 {
	src := sampling.NewSourceFromUint64(w.Seed)
	out := make([][]uint64, w.Users)
	for u := range out {
		out[u] = make([]uint64, w.CtsPerUser)
		for c := range out[u] {
			out[u][c] = src.Uint64N(w.MaxValue)
		}
	}
	return out
}

// Flat returns all samples in one slice (user-major).
func (w Workload) Flat() []uint64 {
	var out []uint64
	for _, row := range w.Values() {
		out = append(out, row...)
	}
	return out
}

// verifyRig is the scaled-down functional environment shared by the
// verifiers: toy-sized ring, real keys, a PIM server and a host evaluator.
type verifyRig struct {
	params *bfv.Parameters
	enc    *bfv.Encryptor
	dec    *bfv.Decryptor
	host   *bfv.Evaluator
	srv    *hepim.Server
}

func newVerifyRig(dpus int, seed uint64) (*verifyRig, error) {
	q, ok := new(big.Int).SetString("1152921504606846883", 10)
	if !ok {
		return nil, errors.New("bench: bad modulus literal")
	}
	params, err := bfv.NewParameters(64, q, 65537, 20)
	if err != nil {
		return nil, err
	}
	src := sampling.NewSourceFromUint64(seed)
	kg := bfv.NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	cfg := pim.DefaultConfig()
	cfg.NumDPUs = dpus
	srv, err := hepim.NewServerWithTopology(cfg, params, rlk, pimsched.FitTopology(dpus), true)
	if err != nil {
		return nil, err
	}
	return &verifyRig{
		params: params,
		enc:    bfv.NewEncryptor(params, pk, src),
		dec:    bfv.NewDecryptor(params, sk),
		host:   bfv.NewEvaluator(params, rlk),
		srv:    srv,
	}, nil
}

func (r *verifyRig) encryptAll(vals []uint64) ([]*bfv.Ciphertext, error) {
	out := make([]*bfv.Ciphertext, len(vals))
	for i, v := range vals {
		ct, err := r.enc.EncryptValue(v)
		if err != nil {
			return nil, err
		}
		out[i] = ct
	}
	return out, nil
}

// VerifyFig1aFunctional runs the Fig 1(a) pipeline (element-wise
// ciphertext addition) at reduced scale on the PIM simulator and checks
// decryption against plaintext recomputation.
func VerifyFig1aFunctional() error {
	rig, err := newVerifyRig(4, 301)
	if err != nil {
		return err
	}
	w := Workload{Users: 1, CtsPerUser: 12, MaxValue: 100, Seed: 302}
	vals := w.Flat()
	a, err := rig.encryptAll(vals)
	if err != nil {
		return err
	}
	b, err := rig.encryptAll(vals)
	if err != nil {
		return err
	}
	for i := range a {
		sum, err := rig.srv.Add(a[i], b[i])
		if err != nil {
			return err
		}
		if !sum.Equal(rig.host.Add(a[i], b[i])) {
			return fmt.Errorf("bench: fig1a PIM/host divergence at element %d", i)
		}
		if got := rig.dec.Decrypt(sum).Coeffs[0]; got != 2*vals[i] {
			return fmt.Errorf("bench: fig1a element %d decrypts to %d, want %d", i, got, 2*vals[i])
		}
	}
	return nil
}

// VerifyFig1bFunctional runs the Fig 1(b) pipeline (ciphertext
// multiplication) at reduced scale.
func VerifyFig1bFunctional() error {
	rig, err := newVerifyRig(2, 303)
	if err != nil {
		return err
	}
	w := Workload{Users: 1, CtsPerUser: 4, MaxValue: 50, Seed: 304}
	vals := w.Flat()
	a, err := rig.encryptAll(vals)
	if err != nil {
		return err
	}
	b, err := rig.encryptAll(vals)
	if err != nil {
		return err
	}
	for i := range a {
		prod, err := rig.srv.Mul(a[i], b[i])
		if err != nil {
			return err
		}
		hostProd, err := rig.host.Mul(a[i], b[i])
		if err != nil {
			return err
		}
		if !prod.Equal(hostProd) {
			return fmt.Errorf("bench: fig1b PIM/host divergence at element %d", i)
		}
		want := (vals[i] * vals[i]) % rig.params.T
		if got := rig.dec.Decrypt(prod).Coeffs[0]; got != want {
			return fmt.Errorf("bench: fig1b element %d decrypts to %d, want %d", i, got, want)
		}
	}
	return nil
}

// VerifyFig2Functional runs the three statistical pipelines at reduced
// scale: mean, variance moments, and linear-regression scoring.
func VerifyFig2Functional() error {
	rig, err := newVerifyRig(4, 305)
	if err != nil {
		return err
	}
	w := Workload{Users: 6, CtsPerUser: 1, MaxValue: 40, Seed: 306}
	vals := w.Flat()
	cts, err := rig.encryptAll(vals)
	if err != nil {
		return err
	}

	// Mean: the encrypted sum; the client divides.
	sumCt, err := rig.srv.Sum(cts)
	if err != nil {
		return err
	}
	var sum uint64
	for _, v := range vals {
		sum += v
	}
	if got := rig.dec.Decrypt(sumCt).Coeffs[0]; got != sum%rig.params.T {
		return fmt.Errorf("bench: fig2a sum = %d, want %d", got, sum)
	}

	// Variance moments: the encrypted sum of squares.
	squares := make([]*bfv.Ciphertext, len(cts))
	for i, ct := range cts {
		if squares[i], err = rig.srv.Mul(ct, ct); err != nil {
			return err
		}
	}
	sumSqCt, err := rig.srv.Sum(squares)
	if err != nil {
		return err
	}
	var sumSq uint64
	for _, x := range vals {
		sumSq += x * x
	}
	if got := rig.dec.Decrypt(sumSqCt).Coeffs[0]; got != sumSq%rig.params.T {
		return fmt.Errorf("bench: fig2b sum of squares = %d, want %d", got, sumSq)
	}

	// Linear regression (3 features): Σ_j w_j·x_j.
	weights, err := rig.encryptAll([]uint64{2, 3, 1})
	if err != nil {
		return err
	}
	sample, err := rig.encryptAll([]uint64{4, 5, 6})
	if err != nil {
		return err
	}
	terms := make([]*bfv.Ciphertext, len(sample))
	for j, x := range sample {
		if terms[j], err = rig.srv.Mul(weights[j], x); err != nil {
			return err
		}
	}
	pred, err := rig.srv.Sum(terms)
	if err != nil {
		return err
	}
	want := uint64(2*4 + 3*5 + 1*6)
	if got := rig.dec.Decrypt(pred).Coeffs[0]; got != want {
		return fmt.Errorf("bench: fig2c prediction = %d, want %d", got, want)
	}
	return nil
}

func TestWorkloadDeterministic(t *testing.T) {
	w := Workload{Users: 4, CtsPerUser: 8, MaxValue: 100, Seed: 9}
	a, b := w.Values(), w.Values()
	for u := range a {
		for c := range a[u] {
			if a[u][c] != b[u][c] {
				t.Fatal("same seed must give same workload")
			}
			if a[u][c] >= 100 {
				t.Fatalf("value %d out of range", a[u][c])
			}
		}
	}
	w2 := w
	w2.Seed = 10
	diff := false
	for u, row := range w2.Values() {
		for c := range row {
			if row[c] != a[u][c] {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds should give different workloads")
	}
	if got := len(w.Flat()); got != 32 {
		t.Errorf("Flat length = %d, want 32", got)
	}
}

func TestVerifyFig1aFunctional(t *testing.T) {
	if err := VerifyFig1aFunctional(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyFig1bFunctional(t *testing.T) {
	if err := VerifyFig1bFunctional(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyFig2Functional(t *testing.T) {
	if err := VerifyFig2Functional(); err != nil {
		t.Fatal(err)
	}
}
