package bfv

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/sampling"
)

// Differential tests: the double-CRT backend must agree with the O(n²)
// schoolbook oracle bit-for-bit — not merely after decryption —
// for every operation, because the extended basis is sized so no exact
// integer coefficient ever wraps. Ciphertext equality implies plaintext
// equality, and we assert both.

type diffRig struct {
	params *Parameters
	sk     *SecretKey
	rlk    *RelinKey
	enc    *Encryptor
	dec    *Decryptor
	fast   *Evaluator // double-CRT backend
	oracle *Oracle    // schoolbook backend
	gk     *GaloisKey
}

func newDiffRig(t *testing.T, params *Parameters, seed uint64) *diffRig {
	t.Helper()
	src := sampling.NewSourceFromUint64(seed)
	kg := NewKeyGenerator(params, src)
	sk, pk := kg.GenKeyPair()
	rlk := kg.GenRelinKey(sk)
	gk, err := kg.GenGaloisKey(sk, 3)
	if err != nil {
		t.Fatal(err)
	}
	return &diffRig{
		params: params,
		sk:     sk,
		rlk:    rlk,
		enc:    NewEncryptor(params, pk, src),
		dec:    NewDecryptor(params, sk),
		fast:   NewEvaluator(params, rlk),
		oracle: NewOracle(params, rlk),
		gk:     gk,
	}
}

// must unwraps an oracle result whose error the test does not expect.
func must(ct *Ciphertext, err error) *Ciphertext {
	if err != nil {
		panic(err)
	}
	return ct
}

func (r *diffRig) mustEqual(t *testing.T, op string, got, want *Ciphertext) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: double-CRT ciphertext differs from schoolbook", op)
	}
	gp, wp := r.dec.Decrypt(got), r.dec.Decrypt(want)
	for i := range gp.Coeffs {
		if gp.Coeffs[i] != wp.Coeffs[i] {
			t.Fatalf("%s: decrypted plaintexts differ at coefficient %d", op, i)
		}
	}
}

func runDifferential(t *testing.T, params *Parameters, seed uint64) {
	r := newDiffRig(t, params, seed)
	ct0, err := r.enc.EncryptValue(11)
	if err != nil {
		t.Fatal(err)
	}
	ct1, err := r.enc.EncryptValue(7)
	if err != nil {
		t.Fatal(err)
	}

	r.mustEqual(t, "Add", r.fast.Add(ct0, ct1), must(r.oracle.Add(ct0, ct1)))
	r.mustEqual(t, "Neg", r.fast.Neg(ct1), must(r.oracle.Neg(ct1)))
	sum := []*Ciphertext{ct0, ct1, ct0}
	r.mustEqual(t, "Sum", r.fast.Sum(sum), must(r.oracle.Sum(sum)))

	pt := NewPlaintext(params)
	pt.Coeffs[0] = 5
	pt.Coeffs[1] = 3
	r.mustEqual(t, "MulPlain", r.fast.MulPlain(ct0, pt), must(r.oracle.MulPlain(ct0, pt)))

	dFast, err := r.fast.MulNoRelin(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	dOracle, err := r.oracle.mulNoRelin(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	r.mustEqual(t, "MulNoRelin", dFast, dOracle)

	relFast, err := r.fast.Relinearize(dFast)
	if err != nil {
		t.Fatal(err)
	}
	relOracle, err := r.oracle.relinearize(dOracle)
	if err != nil {
		t.Fatal(err)
	}
	r.mustEqual(t, "Relinearize", relFast, relOracle)

	rotFast, err := r.fast.ApplyGalois(ct0, r.gk)
	if err != nil {
		t.Fatal(err)
	}
	rotOracle, err := r.oracle.ApplyGalois(ct0, r.gk)
	if err != nil {
		t.Fatal(err)
	}
	r.mustEqual(t, "ApplyGalois", rotFast, rotOracle)
}

// runDifferentialDepth chains depth rounds of Mul → Rotate → Add on both
// backends and asserts bit-identical ciphertexts (hence decryptions)
// after every operation — the NTT-resident chain against the schoolbook
// oracle. Noise overflows long before the chain ends at the smaller
// levels; bit-identity is unaffected, which is exactly the property
// differential testing relies on.
func runDifferentialDepth(t *testing.T, params *Parameters, seed uint64, depth int) {
	r := newDiffRig(t, params, seed)
	ctB, err := r.enc.EncryptValue(5)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := r.enc.EncryptValue(3)
	if err != nil {
		t.Fatal(err)
	}
	oracle := fast
	for d := 0; d < depth; d++ {
		fm, err := r.fast.Mul(fast, ctB)
		if err != nil {
			t.Fatal(err)
		}
		om, err := r.oracle.Mul(oracle, ctB)
		if err != nil {
			t.Fatal(err)
		}
		r.mustEqual(t, "depth Mul", fm, om)

		fr, err := r.fast.ApplyGalois(fm, r.gk)
		if err != nil {
			t.Fatal(err)
		}
		or, err := r.oracle.ApplyGalois(om, r.gk)
		if err != nil {
			t.Fatal(err)
		}
		r.mustEqual(t, "depth Rotate", fr, or)

		fast = r.fast.Add(fr, ctB)
		oracle = must(r.oracle.Add(or, ctB))
		r.mustEqual(t, "depth Add", fast, oracle)
	}
}

// TestDCRTDifferentialDepthSec27 chains depth 3 with rotations at the
// 27-bit level's full ring degree.
func TestDCRTDifferentialDepthSec27(t *testing.T) {
	runDifferentialDepth(t, ParamsSec27(), 272, 3)
}

// TestDCRTDifferentialDepthSec54 chains depth 3 at the 54-bit level's
// full ring degree; several seconds of schoolbook oracle, so -short
// skips it.
func TestDCRTDifferentialDepthSec54(t *testing.T) {
	if testing.Short() {
		t.Skip("schoolbook oracle at N=2048 × depth 3 is slow")
	}
	runDifferentialDepth(t, ParamsSec54(), 542, 3)
}

// TestDCRTDifferentialDepthSec109 chains depth 3 on the 109-bit modulus
// (W=4, two-word fast-conversion path) at the reduced ring degree the
// schoolbook oracle can afford; TestDCRTDifferentialDepthSec109FullDegree
// covers N=4096 behind the same env gate as the depth-1 test.
func TestDCRTDifferentialDepthSec109(t *testing.T) {
	if testing.Short() {
		t.Skip("schoolbook oracle at W=4 × depth 3 is slow")
	}
	runDifferentialDepth(t, mustParams(1024, prime109, 16, 28), 1093, 3)
}

func TestDCRTDifferentialDepthSec109FullDegree(t *testing.T) {
	if os.Getenv("DCRT_FULL_DIFF") == "" {
		t.Skip("set DCRT_FULL_DIFF=1 to run the multi-minute full-degree schoolbook oracle")
	}
	runDifferentialDepth(t, ParamsSec109(), 1094, 3)
}

// TestDCRTDifferentialSec27 covers the 27-bit level at its full ring
// degree (N=1024, single-limb coefficients).
func TestDCRTDifferentialSec27(t *testing.T) {
	runDifferential(t, ParamsSec27(), 271)
}

// TestDCRTDifferentialSec54 covers the 54-bit level at its full ring
// degree (N=2048, two-limb coefficients). A few seconds of schoolbook
// oracle time, so skipped under -short.
func TestDCRTDifferentialSec54(t *testing.T) {
	if testing.Short() {
		t.Skip("schoolbook oracle at N=2048 is slow")
	}
	runDifferential(t, ParamsSec54(), 541)
}

// TestDCRTDifferentialSec109Modulus covers the 109-bit level's modulus,
// limb width (W=4) and relinearization base at a reduced ring degree the
// schoolbook oracle can afford. Full-degree equivalence is covered by
// TestDCRTDifferentialSec109FullDegree (env-gated: the oracle needs
// ~half a minute at N=4096) plus the full-degree pipeline tests in
// internal/hepim.
func TestDCRTDifferentialSec109Modulus(t *testing.T) {
	params := mustParams(1024, prime109, 16, 28)
	runDifferential(t, params, 1091)
}

func TestDCRTDifferentialSec109FullDegree(t *testing.T) {
	if os.Getenv("DCRT_FULL_DIFF") == "" {
		t.Skip("set DCRT_FULL_DIFF=1 to run the ~30s full-degree schoolbook oracle")
	}
	runDifferential(t, ParamsSec109(), 1092)
}

// TestDCRTEvaluatorParallel exercises the worker pool, the table and
// context caches, and the lazily-built key forms from many goroutines at
// once; run under -race it is the evaluator's thread-safety proof.
func TestDCRTEvaluatorParallel(t *testing.T) {
	params := ParamsSec27()
	r := newDiffRig(t, params, 4242)
	cts := make([]*Ciphertext, 4)
	for i := range cts {
		ct, err := r.enc.EncryptValue(uint64(3 + i))
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	type result struct {
		mul, rot *Ciphertext
	}
	want := make([]result, len(cts))
	for i, ct := range cts {
		m, err := r.fast.Mul(ct, cts[(i+1)%len(cts)])
		if err != nil {
			t.Fatal(err)
		}
		g, err := r.fast.ApplyGalois(ct, r.gk)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = result{m, g}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8*len(cts))
	for rep := 0; rep < 8; rep++ {
		for i, ct := range cts {
			wg.Add(1)
			go func(i int, ct *Ciphertext) {
				defer wg.Done()
				m, err := r.fast.Mul(ct, cts[(i+1)%len(cts)])
				if err != nil {
					errs <- err
					return
				}
				g, err := r.fast.ApplyGalois(ct, r.gk)
				if err != nil {
					errs <- err
					return
				}
				if !m.Equal(want[i].mul) || !g.Equal(want[i].rot) {
					errs <- fmt.Errorf("parallel evaluation diverged on input %d", i)
				}
			}(i, ct)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
