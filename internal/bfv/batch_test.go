package bfv

import "testing"

// Batched-evaluation differential tests: every BatchEvaluator operation
// must be bit-identical to folding the schoolbook oracle's per-ciphertext
// operations in slice order — the same contract the single-ciphertext
// double-CRT backend holds.

// runBatchRotateAndSumDifferential drives the batched rotate-and-sum
// workload (each ciphertext plus k rotations of it, hoisted and fused on
// the native path) against the schoolbook oracle.
func runBatchRotateAndSumDifferential(t *testing.T, params *Parameters, seed uint64, batch, rotations int) {
	t.Helper()
	c := newCtx(t, params, seed, false)
	gks := genGaloisKeys(t, params, c.sk, seed+1, rotations)
	oracle := NewOracle(params, nil)

	cts := make([]*Ciphertext, batch)
	for i := range cts {
		pt := NewPlaintext(params)
		for j := range pt.Coeffs {
			pt.Coeffs[j] = uint64((j*(i+2) + i) % int(params.T))
		}
		ct, err := c.enc.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}

	be := NewBatchEvaluatorFrom(c.eval)
	got, err := be.RotateAndSum(cts, gks)
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range cts {
		want := ct.Clone()
		for _, gk := range gks {
			r, err := oracle.ApplyGalois(ct, gk)
			if err != nil {
				t.Fatal(err)
			}
			want = must(oracle.Add(want, r))
		}
		if !got[i].Equal(want) {
			t.Fatalf("ciphertext %d: batched rotate-and-sum differs from schoolbook oracle", i)
		}
		gp, wp := c.dec.Decrypt(got[i]), c.dec.Decrypt(want)
		for j := range gp.Coeffs {
			if gp.Coeffs[j] != wp.Coeffs[j] {
				t.Fatalf("ciphertext %d: decrypted rotate-and-sum differs at %d", i, j)
			}
		}
	}
}

// TestBatchRotateAndSumSec27 covers the 27-bit level at full degree.
func TestBatchRotateAndSumSec27(t *testing.T) {
	runBatchRotateAndSumDifferential(t, ParamsSec27(), 301, 3, 4)
}

// TestBatchRotateAndSumSec54 covers the 54-bit level at full degree; the
// schoolbook oracle is slow there, so -short skips it.
func TestBatchRotateAndSumSec54(t *testing.T) {
	if testing.Short() {
		t.Skip("schoolbook oracle at N=2048 is slow")
	}
	runBatchRotateAndSumDifferential(t, ParamsSec54(), 302, 2, 3)
}

// TestBatchRotateAndSumSec109 covers the 109-bit modulus and limb width
// (W=4) at the reduced ring degree the schoolbook oracle can afford,
// mirroring the depth-differential tests.
func TestBatchRotateAndSumSec109(t *testing.T) {
	if testing.Short() {
		t.Skip("schoolbook oracle at W=4 is slow")
	}
	runBatchRotateAndSumDifferential(t, mustParams(1024, prime109, 16, 28), 303, 2, 3)
}

// TestBatchRotateMany pins RotateMany outputs to per-rotation
// ApplyGalois, bitwise.
func TestBatchRotateMany(t *testing.T) {
	params := ParamsSec27()
	c := newCtx(t, params, 304, false)
	gks := genGaloisKeys(t, params, c.sk, 305, 5)
	ct, err := c.enc.EncryptValue(21)
	if err != nil {
		t.Fatal(err)
	}
	be := NewBatchEvaluatorFrom(c.eval)
	got, err := be.RotateMany(ct, gks)
	if err != nil {
		t.Fatal(err)
	}
	for i, gk := range gks {
		want, err := c.eval.ApplyGalois(ct, gk)
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Equal(want) {
			t.Fatalf("rotation %d (g=%d) differs from ApplyGalois", i, gk.G)
		}
	}
	all, err := be.RotateManyAll([]*Ciphertext{ct, ct}, gks)
	if err != nil {
		t.Fatal(err)
	}
	for r := range all {
		for i := range gks {
			if !all[r][i].Equal(got[i]) {
				t.Fatalf("RotateManyAll row %d rotation %d diverged", r, i)
			}
		}
	}
}

// TestBatchMulAddMany pins the batched Mul/Add pipelines to the
// sequential evaluator.
func TestBatchMulAddMany(t *testing.T) {
	params := ParamsToy()
	c := newCtx(t, params, 306, true)
	const batch = 4
	as := make([]*Ciphertext, batch)
	bs := make([]*Ciphertext, batch)
	for i := range as {
		var err error
		if as[i], err = c.enc.EncryptValue(uint64(2 + i)); err != nil {
			t.Fatal(err)
		}
		if bs[i], err = c.enc.EncryptValue(uint64(3 * (i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	be := NewBatchEvaluatorFrom(c.eval)
	prods, err := be.MulMany(as, bs)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := be.AddMany(as, bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range as {
		wantMul, err := c.eval.Mul(as[i], bs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !prods[i].Equal(wantMul) {
			t.Fatalf("MulMany[%d] differs from sequential Mul", i)
		}
		if !sums[i].Equal(c.eval.Add(as[i], bs[i])) {
			t.Fatalf("AddMany[%d] differs from sequential Add", i)
		}
	}
	if _, err := be.MulMany(as, bs[:1]); err == nil {
		t.Error("MulMany length mismatch accepted")
	}
	if _, err := be.AddMany(as[:1], bs); err == nil {
		t.Error("AddMany length mismatch accepted")
	}
}
